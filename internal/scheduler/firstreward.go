package scheduler

import (
	"sort"

	"repro/internal/economy"
	"repro/internal/workload"
)

// FirstReward parameters. The paper derives these by tuning on its
// workload: α = 1 (earnings fully weighted, opportunity cost ignored in the
// reward but not in the slack), discount rate 1%, slack threshold 25. The
// paper leaves the discount-rate time unit implicit; this reproduction
// applies it per hour of remaining processing time so present values stay
// meaningful at trace scale (see DESIGN.md).
const (
	firstRewardAlpha     = 1.0
	firstRewardDiscount  = 0.01 // per hour of RPT
	firstRewardThreshold = 25.0 // seconds of slack

	// minPenaltyRate guards the slack division for jobs whose synthesized
	// penalty rate is ~0 (they are effectively penalty-free, so their slack
	// is huge and they are admitted).
	minPenaltyRate = 1e-9
)

// firstReward implements FirstReward (Irwin, Grit & Chase) extended to
// multi-processor parallel jobs, without backfilling, under the bid-based
// model: admission happens immediately at submission via the slack test;
// accepted jobs wait in a queue ordered by reward (present value per second
// of remaining processing time) and start strictly in that order as
// processors free up — so a newly accepted, more rewarding job delays
// previously accepted ones.
//
// A failure victim is requeued for a restart. It stays outstanding — its
// penalty exposure still burdens the admission test — and keeps its
// acceptance; only completion settles it.
type firstReward struct {
	spaceQueue
	// byReward is the queue order, bound once at construction.
	byReward func(a, b *workload.Job) bool
	// outstanding tracks accepted-but-unfinished jobs, whose penalty rates
	// feed the opportunity-cost sum of the admission test. Kept sorted by
	// job ID: the sum is a float accumulation, and its rounding must not
	// depend on insertion history or map iteration order.
	outstanding []*workload.Job

	alpha, discount, threshold float64
	// bounded caps each job's penalty exposure at its own budget (Irwin et
	// al.'s bounded-penalty case); the paper evaluates the unbounded form.
	bounded bool
}

// NewFirstReward returns the FirstReward policy with the paper's tuned
// constants.
func NewFirstReward(ctx *Context) Policy {
	return NewFirstRewardTuned(ctx, firstRewardAlpha, firstRewardDiscount, firstRewardThreshold)
}

// NewFirstRewardTuned returns FirstReward with explicit constants; the
// slack-threshold ablation bench sweeps these.
func NewFirstRewardTuned(ctx *Context, alpha, discount, threshold float64) Policy {
	f := &firstReward{alpha: alpha, discount: discount, threshold: threshold}
	f.init(ctx, "FirstReward", f.schedule)
	f.done = f.finish
	f.byReward = f.rewardLess
	return f
}

// NewFirstRewardBounded returns FirstReward under bounded penalties: both
// the admission test's opportunity cost and the earned utility cap each
// job's loss at its budget. It accepts more work than the unbounded
// variant, trading penalty exposure for throughput.
func NewFirstRewardBounded(ctx *Context) Policy {
	p := NewFirstRewardTuned(ctx, firstRewardAlpha, firstRewardDiscount, firstRewardThreshold).(*firstReward)
	p.bounded = true
	return p
}

// presentValue is PV_i = b_i / (1 + discount·RPT_i) with RPT in hours.
func (f *firstReward) presentValue(j *workload.Job, rpt float64) float64 {
	return j.Budget / (1 + f.discount*rpt/3600)
}

// opportunityCost is cost_i = Σ_{k≠i} pr_k · RPT_i over outstanding jobs:
// the penalty exposure of delaying everyone else by this job's remaining
// processing time. Under bounded penalties each term is capped at the
// delayed job's budget — the most that job can ever cost the provider.
// Summed in job-ID order (the slice invariant) for reproducible rounding.
func (f *firstReward) opportunityCost(rpt float64) float64 {
	sum := 0.0
	for _, k := range f.outstanding {
		exposure := k.PenaltyRate * rpt
		if f.bounded && exposure > k.Budget {
			exposure = k.Budget
		}
		sum += exposure
	}
	return sum
}

// addOutstanding inserts j preserving the ID-sorted invariant.
func (f *firstReward) addOutstanding(j *workload.Job) {
	i := sort.Search(len(f.outstanding), func(k int) bool { return f.outstanding[k].ID >= j.ID })
	f.outstanding = append(f.outstanding, nil)
	copy(f.outstanding[i+1:], f.outstanding[i:])
	f.outstanding[i] = j
}

// dropOutstanding removes j, if present.
func (f *firstReward) dropOutstanding(j *workload.Job) {
	kept := f.outstanding[:0]
	for _, k := range f.outstanding {
		if k != j {
			kept = append(kept, k)
		}
	}
	f.outstanding = kept
}

// reward orders the execution queue: ((α·PV) − ((1−α)·cost))/RPT.
func (f *firstReward) reward(j *workload.Job) float64 {
	rpt := j.Estimate
	return (f.alpha*f.presentValue(j, rpt) - (1-f.alpha)*f.opportunityCost(rpt)) / rpt
}

// rewardLess orders jobs by descending reward, then ID.
func (f *firstReward) rewardLess(a, b *workload.Job) bool {
	ra, rb := f.reward(a), f.reward(b)
	if ra != rb {
		return ra > rb
	}
	return a.ID < b.ID
}

func (f *firstReward) Submit(j *workload.Job) {
	rpt := j.Estimate
	pv := f.presentValue(j, rpt)
	cost := f.opportunityCost(rpt)
	pr := j.PenaltyRate
	if pr < minPenaltyRate {
		pr = minPenaltyRate
	}
	slack := (pv - cost) / pr
	if slack < f.threshold {
		f.ctx.Collector.Rejected(j)
		return
	}
	f.ctx.Collector.Accepted(j)
	f.addOutstanding(j)
	f.spaceQueue.Submit(j)
}

// Drain drops the stranded jobs from the outstanding set and writes them
// off.
func (f *firstReward) Drain() {
	for _, j := range f.queue {
		f.dropOutstanding(j)
	}
	f.spaceQueue.Drain()
}

// schedule starts queued jobs strictly in reward order (no backfilling): a
// blocked head waits for processors even while narrower jobs could fit.
func (f *firstReward) schedule() {
	sortJobs(f.queue, f.byReward)
	f.startHeads()
}

// finish settles a completed job at its bid-based utility, bounded when
// penalties are, and runs the pass.
func (f *firstReward) finish(j *workload.Job) {
	now := float64(f.ctx.Engine.Now())
	f.dropOutstanding(j)
	utility := economy.BidUtility(j, now)
	if f.bounded {
		utility = economy.BoundedBidUtility(j, now)
	}
	f.ctx.Collector.Finished(j, now, utility)
	f.schedule()
}
