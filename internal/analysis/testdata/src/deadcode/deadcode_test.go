package main

import "testing"

func TestTestOnly(t *testing.T) {
	if testOnly() != 1 {
		t.Fatal("testOnly")
	}
}
