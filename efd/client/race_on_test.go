//go:build race

package client

// binaryAllocsCeiling is the binary ingest path's allocs/op ceiling
// in TestClientIngestAllocRatio. Under the race detector the client's
// encoder sync.Pool drops buffers at random; the path measured 123–128
// allocs/op there, so the ceiling is the top of that range.
const binaryAllocsCeiling = 128
