// Package ldms is the telemetry codec of the reproduction: it reads
// and writes the per-node CSV files of an LDMS-style collection
// pipeline (Agelastos et al., SC'14) in the layout of the Taxonomist
// artifact, one row per 1 s sampling tick and one column per metric,
// and the multi-node execution CSV that cmd/gendataset writes.
package ldms
