// Package scheduler implements the resource management policies the paper
// evaluates (Table V) and the simulation driver ([Run]) that plays a
// workload through one of them on a simulated cluster.
//
// The paper's seven policies:
//
//	FCFS-BF, SJF-BF, EDF-BF  EASY backfilling with generous admission
//	                         control (space-shared); ordered by arrival,
//	                         shortest estimate, or earliest deadline;
//	Libra                    deadline-proportional share with admission
//	                         control at submission (time-shared);
//	Libra+$                  Libra with the enhanced adaptive pricing
//	                         function (commodity market model only);
//	LibraRiskD               Libra that only places jobs on nodes with zero
//	                         risk of deadline delay (bid-based model only);
//	FirstReward              reward/opportunity-cost admission with slack
//	                         threshold (bid-based model only).
//
// Extension policies beyond the paper (see README "Beyond the paper"):
// no-admission-control baselines (FCFS-BF/noAC, EDF-BF/noAC),
// conservative backfilling (FCFS-CONS), QoPS guaranteed admission, and
// deadline termination (LibraT).
//
// The space-shared policies embed one core, spaceQueue: the machine, the
// wait queue, fault requeue, drain, the generous admission control, job
// start and completion accounting, and the EASY pass. Each policy adds
// only its queue order, when it admits, its pass, and its charge instant.
//
// [Specs] is the policy registry: each [Spec] names the policy, the
// economic models it supports ([ForModel] filters to the five policies a
// model's figures evaluate), its primary parameter, and a constructor.
// A policy receives a [Context] (event engine, metrics collector, economic
// model, machine description) and reacts to job submissions; the driver
// owns the event loop, deterministic for a given workload and seed.
package scheduler
