// Command deadcode exercises the deadcode analyzer. Package main
// exports no library API, so main is the only entry point.
package main

import (
	"fmt"
	"os"
)

func main() {
	used()
	usedKept()
	fmt.Fprint(os.Stdout, celsius(21), box[int]{v: 1}.get())
}

func used() {}

func unreachable() {} // want `unreachable is unreachable from every production root`

// testOnly is called from deadcode_test.go alone, which the analysis
// never loads: test callers do not keep production code alive.
func testOnly() int { return 1 } // want `testOnly is unreachable from every production root`

// oracle is deliberately kept for a test to compare against.
//
//efd:keep differential oracle for the fixture's imagined fuzz test
func oracle() {}

// usedKept is reached from main, so its keep is stale.
//
//efd:keep nothing calls it (no longer true)
func usedKept() {} // want `stale //efd:keep on usedKept: production code reaches it \(main → usedKept\)`

// reasonless carries a keep without the mandatory reason.
//
//efd:keep
func reasonless() {} // want `//efd:keep on reasonless needs a reason`

// celsius satisfies fmt.Stringer, an interface declared outside the
// module: fmt may call String, so it is a root.
type celsius float64

func (c celsius) String() string { return fmt.Sprintf("%.1fC", float64(c)) }

// Fahrenheit is exported, but package main has no library API and no
// interface asks for it.
func (c celsius) Fahrenheit() float64 { return float64(c)*9/5 + 32 } // want `celsius.Fahrenheit is unreachable`

// wrapped follows the errors protocol: errors.Unwrap finds Unwrap by
// an unnamed interface assertion.
type wrapped struct{ err error }

func (w *wrapped) Error() string { return w.err.Error() }
func (w *wrapped) Unwrap() error { return w.err }

// handlers is a package-level table: the functions it names run from
// wherever the table is read, so they are roots.
var handlers = map[string]func(){"tick": tick}

func tick() { tock() }

func tock() {}

// box is generic: the call on box[int] reaches the declared method
// through its instance's Origin.
type box[T any] struct{ v T }

func (b box[T]) get() T { return b.v }

// harness keeps every method of the type.
//
//efd:keep fault-injection harness the fixture's tests drive
type harness struct{}

func (harness) arm()    {}
func (harness) disarm() {}
