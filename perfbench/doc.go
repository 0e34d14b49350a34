// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed measuring time and prints, as the last line of its
// standard output, a JSON object with the fields correct, attempted,
// failed and metrics.
//
// Four workloads cover the two ways the reproduction is served:
//
//	paper-suite       the riskbench pipeline over the paper's headline grid
//	faulted-backfill  the riskbench pipeline on the fault/replication path
//	fleet-admit       the riskctl write path: one plane, four workers
//	fleet-watch       the same fleet with reads beside the writes
//
// Every run checks its outputs against the repository's own determinism
// oracles (bit-exact cell recomputation, results.json round trips,
// byte-identical session journals, live-versus-offline risk scores) and
// exits nonzero, without a result line, on the first mismatch.
//
// With -trace 1 the run also records spans, decomposes the workload's time
// by layer, writes the span dump under .bench_build/captures, and prints
// the per-layer metrics instead of the end-to-end ones. See README.md for
// the metric table and how the layers move the end-to-end figures.
package main
