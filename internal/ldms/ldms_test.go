package ldms

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/par"
	"repro/internal/telemetry"
)

// rampSource is a deterministic ValueSource for tests: value encodes
// metric, node and time.
type rampSource struct{}

func (rampSource) Value(metric string, node int, t time.Duration) float64 {
	return float64(len(metric)*1000+node*100) + t.Seconds()
}

func TestNewSamplerValidation(t *testing.T) {
	if _, err := NewSampler("empty", nil); err == nil {
		t.Error("empty metric list should fail")
	}
	s, err := NewSampler("s", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "s" || len(s.Metrics()) != 2 {
		t.Errorf("sampler header wrong: %s %v", s.Name(), s.Metrics())
	}
}

func TestSamplerSample(t *testing.T) {
	s, _ := NewSampler("s", []string{"aa", "bbb"})
	ms := s.Sample(rampSource{}, 2, 5*time.Second)
	if len(ms) != 2 {
		t.Fatalf("measurements = %d", len(ms))
	}
	if ms[0].Metric != "aa" || ms[0].Value != 2205 {
		t.Errorf("measurement 0 = %+v", ms[0])
	}
	if ms[1].Metric != "bbb" || ms[1].Value != 3205 {
		t.Errorf("measurement 1 = %+v", ms[1])
	}
}

func TestCatalogSamplersCoverCatalog(t *testing.T) {
	samplers := CatalogSamplers()
	if len(samplers) != 3 {
		t.Fatalf("samplers = %d, want 3 (vmstat, meminfo, metric_set_nic)", len(samplers))
	}
	covered := make(map[string]bool)
	for _, s := range samplers {
		for _, m := range s.Metrics() {
			if covered[m] {
				t.Errorf("metric %q covered twice", m)
			}
			covered[m] = true
		}
	}
	for _, m := range apps.Metrics() {
		if !covered[m.Name] {
			t.Errorf("metric %q not covered by any sampler", m.Name)
		}
	}
}

func TestNewCollectorValidation(t *testing.T) {
	if _, err := NewCollector(nil, time.Second); err == nil {
		t.Error("no samplers should fail")
	}
	a, _ := NewSampler("a", []string{"m"})
	b, _ := NewSampler("b", []string{"m"})
	if _, err := NewCollector([]Sampler{a, b}, time.Second); err == nil {
		t.Error("duplicate metric across samplers should fail")
	}
}

func TestCollect(t *testing.T) {
	s1, _ := NewSampler("s1", []string{"aa"})
	s2, _ := NewSampler("s2", []string{"bbb", "cccc"})
	c, err := NewCollector([]Sampler{s1, s2}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := c.Collect(rampSource{}, 2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := ns.Metrics(); len(got) != 3 {
		t.Fatalf("metrics = %v", got)
	}
	if got := ns.Nodes(); len(got) != 2 {
		t.Fatalf("nodes = %v", got)
	}
	sr := ns.Get(1, "aa")
	if sr.Len() != 11 {
		t.Errorf("series length = %d, want 11", sr.Len())
	}
	if sr.ValueAt(3) != 2103+0 {
		// aa on node 1 at t=3: 2*1000+1*100+3 = 2103.
		t.Errorf("sample value = %v, want 2103", sr.ValueAt(3))
	}
	if err := ns.Validate(); err != nil {
		t.Errorf("collected telemetry invalid: %v", err)
	}
	if _, err := c.Collect(rampSource{}, 0, time.Second); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := c.Collect(rampSource{}, 1, -time.Second); err == nil {
		t.Error("negative duration should fail")
	}
}

func TestCollectDefaultPeriod(t *testing.T) {
	s, _ := NewSampler("s", []string{"m"})
	c, err := NewCollector([]Sampler{s}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Period != telemetry.DefaultPeriod {
		t.Errorf("Period = %v", c.Period)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s, _ := NewSampler("s", []string{"m1", "m2"})
	c, _ := NewCollector([]Sampler{s}, time.Second)
	ns, err := c.Collect(rampSource{}, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNodeCSV(&buf, ns, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNodeCSV(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"m1", "m2"} {
		a, b := ns.Get(0, m), got.Get(0, m)
		if a.Len() != b.Len() {
			t.Fatalf("metric %s length %d vs %d", m, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if a.At(i) != b.At(i) {
				t.Fatalf("metric %s sample %d: %+v vs %+v", m, i, a.At(i), b.At(i))
			}
		}
	}
}

func TestCSVHeaderFormat(t *testing.T) {
	s, _ := NewSampler("s", []string{"zz", "aa"})
	c, _ := NewCollector([]Sampler{s}, time.Second)
	ns, _ := c.Collect(rampSource{}, 1, time.Second)
	var buf bytes.Buffer
	if err := WriteNodeCSV(&buf, ns, 0); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if first != "#Time,aa,zz" {
		t.Errorf("header = %q (metrics must be alphabetical)", first)
	}
}

func TestReadNodeCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"time,m\n1,2\n",          // wrong header tag
		"#Time\n",                // no metrics
		"#Time,m\nx,2\n",         // bad time
		"#Time,m\n1.0,notanum\n", // bad value
		"#Time,m\n1.0,2.0,3.0\n", // too many fields (csv lib catches)
	}
	for i, in := range cases {
		if _, err := ReadNodeCSV(strings.NewReader(in), 0); err == nil {
			t.Errorf("case %d should fail: %q", i, in)
		}
	}
}

func TestWriteNodeCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteNodeCSV(&buf, telemetry.NewNodeSet(), 0); err == nil {
		t.Error("empty node set should fail")
	}
	ns := telemetry.NewNodeSet()
	sr := telemetry.NewSeries("m", 1, 1)
	sr.Append(0, 1)
	ns.Put(sr)
	if err := WriteNodeCSV(&buf, ns, 0); err == nil {
		t.Error("missing node should fail")
	}
}

// TestCSVRoundTripFractionalOffsets is the regression test for the
// offset-precision drift: the writer used to format offsets with one
// decimal while the reader truncated seconds*1e9, so 0.1 s came back
// as 99999999 ns and sub-decisecond offsets collided. Full-precision
// offsets plus nanosecond rounding must make write→read→write a fixed
// point, byte for byte.
func TestCSVRoundTripFractionalOffsets(t *testing.T) {
	ns := telemetry.NewNodeSet()
	s := telemetry.NewSeries("m", 0, 0)
	offsets := []time.Duration{
		0,
		100 * time.Millisecond, // 0.1 s: the historical drift case
		250 * time.Millisecond,
		time.Second + 1, // 1.000000001 s: sub-decisecond resolution
		2 * time.Second,
	}
	for i, off := range offsets {
		s.Append(off, float64(i)+0.125)
	}
	ns.Put(s)

	var first bytes.Buffer
	if err := WriteNodeCSV(&first, ns, 0); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNodeCSV(bytes.NewReader(first.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Get(0, "m")
	if got.Len() != len(offsets) {
		t.Fatalf("round-trip length = %d, want %d", got.Len(), len(offsets))
	}
	for i, off := range offsets {
		if sm := got.At(i); sm.Offset != off || sm.Value != float64(i)+0.125 {
			t.Errorf("sample %d = %+v, want offset %v value %v", i, sm, off, float64(i)+0.125)
		}
	}
	var second bytes.Buffer
	if err := WriteNodeCSV(&second, back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("write→read→write is not a fixed point:\nfirst:  %q\nsecond: %q",
			first.String(), second.String())
	}
}

// TestReadNodeCSVMatchesStd pins the byte-oriented reader to the
// encoding/csv baseline on realistic collector output.
func TestReadNodeCSVMatchesStd(t *testing.T) {
	s, _ := NewSampler("s", []string{"m1", "m2", "m3"})
	c, _ := NewCollector([]Sampler{s}, time.Second)
	ns, err := c.Collect(rampSource{}, 1, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNodeCSV(&buf, ns, 0); err != nil {
		t.Fatal(err)
	}
	a, err := ReadNodeCSV(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadNodeCSVStd(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range a.Metrics() {
		sa, sb := a.Get(0, m), b.Get(0, m)
		if sa.Len() != sb.Len() {
			t.Fatalf("metric %s length %d vs %d", m, sa.Len(), sb.Len())
		}
		for i := 0; i < sa.Len(); i++ {
			if sa.At(i) != sb.At(i) {
				t.Fatalf("metric %s sample %d: %+v vs %+v", m, i, sa.At(i), sb.At(i))
			}
		}
	}
}

func TestReadExecutionCSVRoundTrip(t *testing.T) {
	s, _ := NewSampler("s", []string{"aa", "bbb"})
	c, _ := NewCollector([]Sampler{s}, time.Second)
	ns, err := c.Collect(rampSource{}, 3, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteExecutionCSV(&buf, ns); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := ReadExecutionCSV(bytes.NewReader(buf.Bytes()), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Nodes()) != 3 {
			t.Fatalf("workers=%d nodes = %v", workers, got.Nodes())
		}
		for _, node := range ns.Nodes() {
			for _, m := range ns.Metrics() {
				a, b := ns.Get(node, m), got.Get(node, m)
				if b == nil || a.Len() != b.Len() {
					t.Fatalf("workers=%d node %d metric %s missing or wrong length", workers, node, m)
				}
				for i := 0; i < a.Len(); i++ {
					if a.At(i) != b.At(i) {
						t.Fatalf("node %d metric %s sample %d: %+v vs %+v",
							node, m, i, a.At(i), b.At(i))
					}
				}
			}
		}
	}
	if _, err := ReadExecutionCSV(strings.NewReader("#Time,m\n0,1\n"), 0); err == nil {
		t.Error("execution CSV without node separators should fail")
	}
	if _, err := ReadExecutionCSV(strings.NewReader(""), 0); err == nil {
		t.Error("empty execution CSV should fail")
	}
}

func TestReadNodeCSVFiles(t *testing.T) {
	s, _ := NewSampler("s", []string{"m"})
	c, _ := NewCollector([]Sampler{s}, time.Second)
	ns, err := c.Collect(rampSource{}, 4, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([]bytes.Buffer, 4)
	for node := 0; node < 4; node++ {
		if err := WriteNodeCSV(&bufs[node], ns, node); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadNodeCSVFiles(func(i int) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(bufs[i].Bytes())), nil
	}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes()) != 4 {
		t.Fatalf("nodes = %v", got.Nodes())
	}
	for node := 0; node < 4; node++ {
		a, b := ns.Get(node, "m"), got.Get(node, "m")
		for i := 0; i < a.Len(); i++ {
			if a.At(i) != b.At(i) {
				t.Fatalf("node %d sample %d differs", node, i)
			}
		}
	}
	if _, err := ReadNodeCSVFiles(func(i int) (io.ReadCloser, error) {
		return nil, fmt.Errorf("boom")
	}, 1, 1); err == nil {
		t.Error("open failure should propagate")
	}
}

func TestWriteExecutionCSV(t *testing.T) {
	s, _ := NewSampler("s", []string{"m"})
	c, _ := NewCollector([]Sampler{s}, time.Second)
	ns, _ := c.Collect(rampSource{}, 2, 2*time.Second)
	var buf bytes.Buffer
	if err := WriteExecutionCSV(&buf, ns); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# node 0") || !strings.Contains(out, "# node 1") {
		t.Errorf("execution CSV missing node separators:\n%s", out)
	}
}

// ReadNodeCSVFiles opens and parses one per-node CSV file per path
// (index = node ID) concurrently on the internal/par pool and merges
// the results into a single NodeSet — the bulk-ingest entry point for
// directories laid out like the Taxonomist artifact.
func ReadNodeCSVFiles(open func(i int) (io.ReadCloser, error), n, workers int) (*telemetry.NodeSet, error) {
	parts := make([]*telemetry.NodeSet, n)
	errs := make([]error, n)
	par.For(n, workers, func(i int) {
		rc, err := open(i)
		if err != nil {
			errs[i] = err
			return
		}
		defer rc.Close()
		parts[i], errs[i] = ReadNodeCSV(rc, i)
	})
	out := telemetry.NewNodeSet()
	for i, p := range parts {
		if errs[i] != nil {
			return nil, fmt.Errorf("ldms: node %d: %w", i, errs[i])
		}
		for _, m := range p.Metrics() {
			if s := p.Get(i, m); s != nil {
				out.Put(s)
			}
		}
	}
	return out, nil
}
