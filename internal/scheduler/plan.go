package scheduler

import (
	"cmp"
	"slices"
)

// The scheduling decision core. planStarts is a pure function from queue
// state to start decisions: no workload, no network, no RNG — which is what
// lets the EASY oracle test drive the exact production decision code over
// thousands of randomized traces without building a simulation.
//
// Resource model: allocation policies take any free routers (fragmentation
// never blocks them — workload.Place refuses only on the free count), so the
// whole machine state a discipline needs is one integer. That is also why
// the EASY reservation is *exact* for cycle-duration jobs: the shadow time
// computed from running jobs' remaining budgets is precisely when the head
// fits, not a fragmentation-optimistic bound.

// qJob is a queued job as the disciplines see it: its router demand and its
// cycle budget (dur < 0: unknown — a "none" or packet-target duration). idx
// and packets are the controller's — its handle on the job and the job's
// packet target, if any; the disciplines do not read them.
type qJob struct {
	need    int
	dur     int64
	idx     int
	packets int64
}

// rJob is a running job as the disciplines see it: its router occupancy and
// its departure cycle (end < 0: unknown).
type rJob struct {
	need int
	end  int64
}

// planScratch is the working storage of planStarts and shadowTime: a
// controller that decides at every event of a long trace keeps one, and the
// results alias it until the next call. The zero value is ready to use.
type planScratch struct {
	picks []int
	run   []rJob // EASY: the running view, started heads included
	known []rJob // shadowTime: running jobs with known ends, by end
}

// planStarts decides which queued jobs start at cycle now, given free
// routers and the running set, under the discipline. It returns queue
// positions in ascending order — the order the caller must place them in,
// so the placement RNG stream is a function of the decisions alone.
//
//   - fcfs: start jobs strictly in queue order; the first that does not fit
//     blocks everything behind it.
//   - backfill: start every job that fits, in queue order, with no
//     reservation for blocked jobs.
//   - easy: start head jobs in order while they fit. When the head blocks,
//     give it a reservation at its shadow time S — the earliest cycle at
//     which the routers freed by running jobs (in departure order)
//     accumulate to the head's demand — and let E be the routers spare at S
//     beyond the head's demand. A later queued job may start now iff it
//     fits now and (a) its budget is known and it ends by S (its routers
//     are back before the head needs them), or (b) it fits within E
//     (the head does not need its routers at S; E is decremented so
//     concurrent backfills cannot jointly oversubscribe the spare).
//     Running jobs with unknown budgets never free routers as far as the
//     shadow computation is concerned; if the head's demand cannot be met
//     from known departures at all there is no reservation to protect
//     (S = -1) and any fitting job may start — aggressive backfill is the
//     only sound fallback when no bound on the head's start exists.
func (s *planScratch) planStarts(disc string, now int64, free int, queue []qJob, running []rJob) []int {
	picks := s.picks[:0]
	switch disc {
	case disciplineBackfill:
		for i, q := range queue {
			if q.need <= free {
				free -= q.need
				picks = append(picks, i)
			}
		}
	case DisciplineEASY:
		// Head-of-queue jobs start as under FCFS; started jobs join the
		// running view so the next head's shadow sees their departures.
		run := append(s.run[:0], running...)
		i := 0
		for ; i < len(queue); i++ {
			q := queue[i]
			if q.need > free {
				break
			}
			free -= q.need
			end := int64(-1)
			if q.dur >= 0 {
				end = now + q.dur
			}
			run = append(run, rJob{need: q.need, end: end})
			picks = append(picks, i)
		}
		s.run = run
		if i >= len(queue) {
			break
		}
		shadow, extra := s.shadowTime(queue[i].need, free, run)
		for k := i + 1; k < len(queue); k++ {
			q := queue[k]
			if q.need > free {
				continue
			}
			switch {
			case shadow < 0:
				// no reservation to protect
			case q.dur >= 0 && now+q.dur <= shadow:
				// returns its routers by the shadow time
			case q.need <= extra:
				extra -= q.need
			default:
				continue
			}
			free -= q.need
			picks = append(picks, k)
		}
	default: // DisciplineFCFS
		for i, q := range queue {
			if q.need > free {
				break
			}
			free -= q.need
			picks = append(picks, i)
		}
	}
	s.picks = picks
	return picks
}

// shadowTime computes the head job's reservation: the earliest cycle S at
// which free routers plus the routers of running jobs departing by S reach
// need, and the spare count E beyond need available at S. It returns
// (-1, 0) when the known departures never accumulate to need (the head's
// start cannot be bounded). Only running jobs with known ends participate.
func (s *planScratch) shadowTime(need, free int, running []rJob) (shadow int64, extra int) {
	if need <= free {
		// The head fits now; callers only ask for blocked heads, but a
		// zero-length answer is well-defined and the oracle exercises it.
		return 0, free - need
	}
	known := s.known[:0]
	for _, r := range running {
		if r.end >= 0 {
			known = append(known, r)
		}
	}
	s.known = known
	// Jobs ending at one cycle are interchangeable below: all of them are
	// counted the moment the first is, so any order among them will do.
	slices.SortFunc(known, func(a, b rJob) int { return cmp.Compare(a.end, b.end) })
	acc := free
	for i, r := range known {
		acc += r.need
		if acc >= need {
			s := r.end
			// Spare at S counts every departure up to and including S, not
			// just the prefix that first covered the demand — jobs ending
			// at the same cycle all free their routers by then.
			for _, later := range known[i+1:] {
				if later.end != s {
					break
				}
				acc += later.need
			}
			return s, acc - need
		}
	}
	return -1, 0
}
