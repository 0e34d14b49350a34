// Package load is the riskload load generator: an open-loop driver for
// the service plane (a control plane or a standalone worker) that records
// request-latency histograms and checks them against SLOs.
//
// The arrival schedule is open-loop and deterministic: session k is
// dispatched at start + k/Rate regardless of how the service is keeping
// up, so a slow service faces mounting concurrency instead of a
// conveniently self-throttling client — the standard guard against
// coordinated omission. Within a session, requests are sequential
// (create, the job stream, finalize, delete), matching how a real client
// must drive a session. The workload itself is fully seeded: session k's
// trace derives from Seed+k through the same workload and QoS
// synthesizers the experiments use, so two riskload runs against the same
// topology issue byte-identical request streams.
//
// Latencies land in lock-free log-bucketed histograms (~25% bucket
// growth), reported as p50/p99/p999/max per operation class. Quantiles
// are bucket upper bounds clamped to the exact max — conservative, never
// flattering, and never above the slowest observation. SLO gates
// compare those quantiles and the error rate against thresholds; riskload
// exits nonzero on violation, with the same escape-hatch convention as
// the bench gate (SLO_GATE=off).
//
// Wall-clock time appears throughout — scheduling arrivals and measuring
// service latency is precisely this package's job — and every site
// carries the wallclock lint annotation saying so. None of it ever
// reaches a simulation: the sessions driven here run in virtual time on
// the serving side, exactly like any other client's.
package load
