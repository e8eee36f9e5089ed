package ldms

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tsdb"
	"repro/internal/vfs"
)

// convTestNodeSet builds a small two-node, two-metric execution.
func convTestNodeSet(t *testing.T) *telemetry.NodeSet {
	t.Helper()
	ns := telemetry.NewNodeSet()
	for node := 0; node < 2; node++ {
		for _, m := range []string{"alpha", "beta"} {
			s := telemetry.NewSeries(m, node, 150)
			for i := 0; i < 150; i++ {
				s.Append(time.Duration(i)*telemetry.DefaultPeriod, float64(node*1000+i)+0.25)
			}
			ns.Put(s)
		}
	}
	return ns
}

// TestReadExecutionCSVFileMatchesReader pins the mmap'd file parse
// against the io.Reader parse byte for byte.
func TestReadExecutionCSVFileMatchesReader(t *testing.T) {
	ns := convTestNodeSet(t)
	var buf bytes.Buffer
	if err := WriteExecutionCSV(&buf, ns); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "exec.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	viaReader, err := ReadExecutionCSV(bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	viaFile, err := ReadExecutionCSVFile(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range viaReader.Nodes() {
		for _, m := range viaReader.Metrics() {
			a, b := viaReader.Get(node, m), viaFile.Get(node, m)
			if a == nil || b == nil || a.Len() != b.Len() {
				t.Fatalf("%s[%d]: series mismatch", m, node)
			}
			for i := 0; i < a.Len(); i++ {
				if a.ValueAt(i) != b.ValueAt(i) || a.OffsetAt(i) != b.OffsetAt(i) {
					t.Fatalf("%s[%d] sample %d differs between reader and mmap parse", m, node, i)
				}
			}
		}
	}
	if _, err := ReadExecutionCSVFile(filepath.Join(t.TempDir(), "missing.csv"), 1); err == nil {
		t.Error("missing file: want error")
	}
}

// TestStoreExecutionCSVRoundTrip stores a parsed execution CSV through
// the store's ingest path (Register, Append, Commit, Finish, Flush) and
// verifies the stored, mmap-served telemetry matches the source
// exactly — including window means over the paper window.
func TestStoreExecutionCSVRoundTrip(t *testing.T) {
	ns := convTestNodeSet(t)
	var buf bytes.Buffer
	if err := WriteExecutionCSV(&buf, ns); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadExecutionCSV(bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tsdb.OpenOptions(t.TempDir(), tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Register("csvjob", len(parsed.Nodes())); err != nil {
		t.Fatal(err)
	}
	for _, node := range parsed.Nodes() {
		for _, m := range parsed.Metrics() {
			s := parsed.Get(node, m)
			offs := make([]time.Duration, s.Len())
			for i := range offs {
				offs[i] = s.OffsetAt(i)
			}
			if err := st.Append("csvjob", m, node, offs, s.ValuesView()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Finish("csvjob", "hist_X"); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	execs := st.Executions()
	if len(execs) != 1 || !execs[0].Stored || execs[0].Label != "hist_X" {
		t.Fatalf("stored executions: %+v", execs)
	}
	stored, err := st.ExecutionSeries("csvjob")
	if err != nil {
		t.Fatal(err)
	}
	w := telemetry.PaperWindow
	for _, node := range ns.Nodes() {
		for _, m := range ns.Metrics() {
			src := ns.Get(node, m)
			got := stored.Get(node, m)
			if got == nil {
				t.Fatalf("stored %s[%d] missing", m, node)
			}
			src.Seal()
			a, err1 := src.WindowMean(w)
			b, err2 := got.WindowMean(w)
			if err1 != nil || err2 != nil {
				t.Fatalf("window means: %v / %v", err1, err2)
			}
			if a != b {
				t.Errorf("%s[%d]: stored window mean %v != source %v", m, node, b, a)
			}
		}
	}
}

// ReadExecutionCSVFile parses a multi-node execution CSV (the
// WriteExecutionCSV format) directly from a read-only memory mapping of
// the file.
func ReadExecutionCSVFile(path string, workers int) (*telemetry.NodeSet, error) {
	m, err := vfs.OS{}.MapFile(path)
	if err != nil {
		return nil, fmt.Errorf("ldms: map execution CSV: %w", err)
	}
	defer m.Close()
	// The returned NodeSet owns freshly built columns (the parser
	// copies fields out while converting), so closing the mapping here
	// is safe.
	return parseExecutionCSV(m.Data, workers)
}
