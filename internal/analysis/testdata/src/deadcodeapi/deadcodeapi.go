// Package deadcodeapi exercises the library-API roots of the deadcode
// analyzer: loaded under a path without an internal segment, its
// exported functions are roots; under an internal path they are not.
package deadcodeapi

// Entry is exported.
func Entry() int { return helper() }

func helper() int { return 1 }
