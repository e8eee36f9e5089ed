package eval

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEvaluatePerfect(t *testing.T) {
	pairs := []Pair{
		{"a", "a"}, {"a", "a"}, {"b", "b"}, {"c", "c"},
	}
	r, err := Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy != 1 || r.MacroF1 != 1 || r.WeightedF1 != 1 {
		t.Errorf("perfect predictions: %+v", r)
	}
	if r.Total != 4 {
		t.Errorf("Total = %d", r.Total)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	if _, err := Evaluate(nil); err == nil {
		t.Error("empty outcomes should error")
	}
	if F1Macro(nil) != 0 {
		t.Error("F1Macro of empty should be 0")
	}
}

func TestEvaluateKnownValues(t *testing.T) {
	// Classic 2-class example:
	// truth a: 3 instances, 2 predicted a, 1 predicted b.
	// truth b: 2 instances, both predicted b.
	pairs := []Pair{
		{"a", "a"}, {"a", "a"}, {"a", "b"},
		{"b", "b"}, {"b", "b"},
	}
	r, err := Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	// a: P=1, R=2/3, F=0.8 ; b: P=2/3, R=1, F=0.8
	for _, c := range r.Classes {
		if math.Abs(c.F1-0.8) > 1e-12 {
			t.Errorf("class %s F1 = %v, want 0.8", c.Class, c.F1)
		}
	}
	if math.Abs(r.MacroF1-0.8) > 1e-12 {
		t.Errorf("MacroF1 = %v, want 0.8", r.MacroF1)
	}
	if math.Abs(r.Accuracy-0.8) > 1e-12 {
		t.Errorf("Accuracy = %v", r.Accuracy)
	}
	// Weighted: (0.8*3 + 0.8*2)/5 = 0.8.
	if math.Abs(r.WeightedF1-0.8) > 1e-12 {
		t.Errorf("WeightedF1 = %v", r.WeightedF1)
	}
}

func TestPredictionOnlyClassExcludedFromMacro(t *testing.T) {
	// "unknown" appears only as a prediction: it must not dilute the
	// macro average (zero support).
	pairs := []Pair{
		{"a", "a"}, {"a", "unknown"}, {"b", "b"},
	}
	r, err := Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	// a: P=1, R=1/2, F=2/3 ; b: F=1. Macro over {a,b} = 5/6.
	if math.Abs(r.MacroF1-5.0/6.0) > 1e-12 {
		t.Errorf("MacroF1 = %v, want %v", r.MacroF1, 5.0/6.0)
	}
}

func TestUnknownAsTruthClass(t *testing.T) {
	// In the unknown-app protocols "unknown" is a genuine truth class.
	pairs := []Pair{
		{"unknown", "unknown"}, {"unknown", "a"}, {"a", "a"},
	}
	r, err := Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	var u ClassStats
	for _, c := range r.Classes {
		if c.Class == "unknown" {
			u = c
		}
	}
	if u.Support != 2 || u.TP != 1 || u.FN != 1 {
		t.Errorf("unknown class stats: %+v", u)
	}
}

func TestAllWrong(t *testing.T) {
	pairs := []Pair{{"a", "b"}, {"b", "a"}}
	r, err := Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy != 0 || r.MacroF1 != 0 {
		t.Errorf("all-wrong: %+v", r)
	}
}

// Property: accuracy equals the fraction of matching pairs, and all
// scores live in [0,1].
func TestEvaluateProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		classes := []string{"a", "b", "c", "unknown"}
		pairs := make([]Pair, len(raw))
		match := 0
		for i, b := range raw {
			tr := classes[int(b)%4]
			pr := classes[int(b/4)%4]
			pairs[i] = Pair{Truth: tr, Pred: pr}
			if tr == pr {
				match++
			}
		}
		r, err := Evaluate(pairs)
		if err != nil {
			return false
		}
		wantAcc := float64(match) / float64(len(raw))
		if math.Abs(r.Accuracy-wantAcc) > 1e-12 {
			return false
		}
		for _, v := range []float64{r.MacroF1, r.WeightedF1, r.MacroPrecision, r.MacroRecall} {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConfusionMatrix(t *testing.T) {
	pairs := []Pair{
		{"a", "a"}, {"a", "b"}, {"b", "b"}, {"b", "b"},
	}
	m := Confusion(pairs)
	if len(m.Classes) != 2 {
		t.Fatalf("classes = %v", m.Classes)
	}
	// classes sorted: a=0, b=1.
	if m.Counts[0][0] != 1 || m.Counts[0][1] != 1 || m.Counts[1][1] != 2 || m.Counts[1][0] != 0 {
		t.Errorf("counts = %v", m.Counts)
	}
	s := m.String()
	if !strings.Contains(s, "a") || !strings.Contains(s, "2") {
		t.Errorf("String rendering missing content:\n%s", s)
	}
}

func TestConfusionIncludesPredictionOnlyClasses(t *testing.T) {
	m := Confusion([]Pair{{"a", "unknown"}})
	if len(m.Classes) != 2 {
		t.Fatalf("classes = %v", m.Classes)
	}
}

func TestReportString(t *testing.T) {
	r, err := Evaluate([]Pair{{"a", "a"}, {"b", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"precision", "recall", "f1-score", "support", "macro avg", "accuracy"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestRowSumsEqualSupport(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		classes := []string{"x", "y", "z"}
		pairs := make([]Pair, len(raw))
		for i, b := range raw {
			pairs[i] = Pair{Truth: classes[int(b)%3], Pred: classes[int(b/3)%3]}
		}
		m := Confusion(pairs)
		r, _ := Evaluate(pairs)
		support := make(map[string]int)
		for _, c := range r.Classes {
			support[c.Class] = c.Support
		}
		for i, cl := range m.Classes {
			sum := 0
			for j := range m.Classes {
				sum += m.Counts[i][j]
			}
			if sum != support[cl] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Confusion builds the confusion matrix of the outcomes, with classes
// sorted alphabetically.
func Confusion(pairs []Pair) ConfusionMatrix {
	seen := make(map[string]bool)
	for _, p := range pairs {
		seen[p.Truth] = true
		seen[p.Pred] = true
	}
	classes := make([]string, 0, len(seen))
	for c := range seen {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	idx := make(map[string]int, len(classes))
	for i, c := range classes {
		idx[c] = i
	}
	counts := make([][]int, len(classes))
	for i := range counts {
		counts[i] = make([]int, len(classes))
	}
	for _, p := range pairs {
		counts[idx[p.Truth]][idx[p.Pred]]++
	}
	return ConfusionMatrix{Classes: classes, Counts: counts}
}
