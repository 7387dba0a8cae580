package sweep

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func storeGrid() Grid {
	g := testGrid()
	g.Mechanisms = []string{"MIN"}
	g.Loads = []float64{0.1, 0.2}
	g.Seeds = []uint64{1}
	return g
}

// runLease simulates a worker: run the leased points and complete.
func runLease(t *testing.T, s *Store, g Grid, info LeaseInfo) int {
	t.Helper()
	recs := make([]Record, len(info.Points))
	for i, pt := range info.Points {
		recs[i] = RecordOf("", g.RunPoint(pt))
	}
	applied, err := s.Complete(info.JobID, info.LeaseID, recs)
	if err != nil {
		t.Fatal(err)
	}
	return applied
}

func drainJob(t *testing.T, s *Store, g Grid, worker string) {
	t.Helper()
	for {
		info, ok := s.Lease(worker, 2, time.Minute)
		if !ok {
			return
		}
		runLease(t, s, g, info)
	}
}

func TestStoreSubmitDedupsByID(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := storeGrid()
	j1, existed, err := s.Submit("fp-a", "base", nil, g)
	if err != nil || existed {
		t.Fatalf("first submit: existed=%v err=%v", existed, err)
	}
	j2, existed, err := s.Submit("fp-a", "base", nil, g)
	if err != nil || !existed || j2 != j1 {
		t.Fatalf("resubmit: job=%p want %p existed=%v err=%v", j2, j1, existed, err)
	}
	if j1.Name() != "job-1" {
		t.Fatalf("name %q", j1.Name())
	}
	snap := j1.Snapshot(false)
	if snap.Status != jobQueued || snap.Total != 2 || snap.Done != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// The core dispatch loop: lease, complete, done — and the finished job's
// records aggregate byte-identically to a local Grid.Run of the same grid.
func TestStoreDispatchMatchesLocalRun(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := storeGrid()
	j, _, err := s.Submit("fp", "base", nil, g)
	if err != nil {
		t.Fatal(err)
	}
	drainJob(t, s, g, "w1")

	recs, done := j.Records()
	if !done || len(recs) != 2 {
		t.Fatalf("done=%v records=%d", done, len(recs))
	}
	got, err := AggregateRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AggregateRecords(g.Run(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store-dispatched series differ from local run:\ngot  %+v\nwant %+v", got, want)
	}
	if st := s.Stats(); st.PointsLeased != 2 || st.PointsDone != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// A lease that is neither completed nor renewed expires: its points are
// re-leased, and the late completion from the original worker is dropped
// as a duplicate.
func TestStoreLeaseExpiryRedispatch(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	now := time.Unix(1000, 0)
	s.SetClock(func() time.Time { return now })
	g := storeGrid()
	j, _, err := s.Submit("fp", "base", nil, g)
	if err != nil {
		t.Fatal(err)
	}

	dead, ok := s.Lease("dying-worker", 2, time.Minute)
	if !ok || len(dead.Points) != 2 {
		t.Fatalf("lease: ok=%v points=%d", ok, len(dead.Points))
	}
	if _, ok := s.Lease("w2", 2, time.Minute); ok {
		t.Fatal("points double-leased while the first lease is live")
	}

	// The worker dies; its lease times out.
	now = now.Add(2 * time.Minute)
	release, ok := s.Lease("w2", 2, time.Minute)
	if !ok || len(release.Points) != 2 {
		t.Fatalf("expired points not re-leased: ok=%v points=%d", ok, len(release.Points))
	}
	if st := s.Stats(); st.LeasesExpired != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if runLease(t, s, g, release) != 2 {
		t.Fatal("re-leased completion not applied")
	}

	// The original worker limps back with the same (deterministic)
	// results: all duplicates, all dropped.
	recs := make([]Record, len(dead.Points))
	for i, pt := range dead.Points {
		recs[i] = RecordOf("", g.RunPoint(pt))
	}
	applied, err := s.Complete(dead.JobID, dead.LeaseID, recs)
	if err != nil || applied != 0 {
		t.Fatalf("late duplicate completion: applied=%d err=%v", applied, err)
	}
	if snap := j.Snapshot(false); snap.Status != JobDone || snap.Done != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// Renewing keeps a lease alive past its original deadline.
func TestStoreRenew(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	now := time.Unix(1000, 0)
	s.SetClock(func() time.Time { return now })
	g := storeGrid()
	if _, _, err := s.Submit("fp", "base", nil, g); err != nil {
		t.Fatal(err)
	}
	info, ok := s.Lease("w1", 2, time.Minute)
	if !ok {
		t.Fatal("no lease")
	}
	now = now.Add(45 * time.Second)
	if err := s.Renew(info.LeaseID, time.Minute); err != nil {
		t.Fatal(err)
	}
	now = now.Add(45 * time.Second) // 90s after grant: dead without the renewal
	if _, ok := s.Lease("w2", 2, time.Minute); ok {
		t.Fatal("renewed lease expired anyway")
	}
	now = now.Add(time.Hour)
	if err := s.Renew(info.LeaseID, time.Minute); err == nil {
		t.Fatal("expired lease revived")
	}
}

// Overlapping grids share the base-fingerprint checkpoint: the second
// job restores the shared points and only queues the new ones. A store
// reopened on the same directory restores everything from disk.
func TestStoreOverlapAndRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1 := storeGrid() // loads 0.1, 0.2
	if _, _, err := s.Submit("fp-1", "base", nil, g1); err != nil {
		t.Fatal(err)
	}
	drainJob(t, s, g1, "w1")

	g2 := storeGrid()
	g2.Loads = []float64{0.2, 0.3} // overlaps g1 at 0.2
	j2, _, err := s.Submit("fp-2", "base", nil, g2)
	if err != nil {
		t.Fatal(err)
	}
	if snap := j2.Snapshot(false); snap.Restored != 1 || snap.Done != 1 {
		t.Fatalf("overlap snapshot = %+v", snap)
	}
	drainJob(t, s, g2, "w1")
	if st := s.Stats(); st.PointsLeased != 3 { // 2 + only the new 0.3 point
		t.Fatalf("stats = %+v (overlapping point was re-run)", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh store on the same directory: both grids restore fully, zero
	// leases needed.
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j, _, err := s2.Submit("fp-1", "base", nil, g1)
	if err != nil {
		t.Fatal(err)
	}
	if snap := j.Snapshot(false); snap.Status != JobDone || snap.Restored != 2 {
		t.Fatalf("restart snapshot = %+v", snap)
	}
	if st := s2.Stats(); st.PointsLeased != 0 {
		t.Fatalf("restart ran simulations: %+v", st)
	}
}

// Records under a foreign schema version are refused at Complete.
func TestStoreCompleteRejectsSchemaMismatch(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := storeGrid()
	j, _, err := s.Submit("fp", "base", nil, g)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := s.Lease("w1", 2, time.Minute)
	if !ok {
		t.Fatal("no lease")
	}
	recs := make([]Record, len(info.Points))
	for i, pt := range info.Points {
		recs[i] = RecordOf("", g.RunPoint(pt))
		recs[i].Schema = schemaVersion + 1
	}
	applied, err := s.Complete(info.JobID, info.LeaseID, recs)
	if err == nil || applied != 0 {
		t.Fatalf("foreign-schema records accepted: applied=%d err=%v", applied, err)
	}
	// The failed completion released the lease; the points are leasable
	// again immediately.
	if _, ok := s.Lease("w2", 2, time.Minute); !ok {
		t.Fatal("points stuck after a rejected completion")
	}
	if snap := j.Snapshot(false); snap.Done != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// Cancel stops further leasing; in-flight completions still merge.
func TestStoreCancel(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := storeGrid()
	j, _, err := s.Submit("fp", "base", nil, g)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := s.Lease("w1", 1, time.Minute)
	if !ok {
		t.Fatal("no lease")
	}
	if err := s.Cancel("fp"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lease("w2", 1, time.Minute); ok {
		t.Fatal("cancelled job still leasing")
	}
	if runLease(t, s, g, info) != 1 {
		t.Fatal("in-flight completion dropped after cancel")
	}
	if snap := j.Snapshot(false); snap.Status != JobCancelled || snap.Done != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if err := s.Cancel("nope"); err == nil {
		t.Fatal("cancelling an unknown job succeeded")
	}
}

// Changed fires on state transitions: a watcher holding the channel from
// before a change observes it.
func TestStoreChanged(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := storeGrid()
	j, _, err := s.Submit("fp", "base", nil, g)
	if err != nil {
		t.Fatal(err)
	}
	ch := j.Changed()
	info, ok := s.Lease("w1", 1, time.Minute)
	if !ok {
		t.Fatal("no lease")
	}
	select {
	case <-ch:
	default:
		t.Fatal("lease did not signal watchers")
	}
	ch = j.Changed()
	runLease(t, s, g, info)
	select {
	case <-ch:
	default:
		t.Fatal("completion did not signal watchers")
	}
}

// A partial batch (worker reports fewer records than leased) returns the
// unreported points to pending.
func TestStorePartialCompletion(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := storeGrid()
	if _, _, err := s.Submit("fp", "base", nil, g); err != nil {
		t.Fatal(err)
	}
	info, ok := s.Lease("w1", 2, time.Minute)
	if !ok || len(info.Points) != 2 {
		t.Fatal("no full lease")
	}
	applied, err := s.Complete(info.JobID, info.LeaseID,
		[]Record{RecordOf("", g.RunPoint(info.Points[0]))})
	if err != nil || applied != 1 {
		t.Fatalf("partial completion: applied=%d err=%v", applied, err)
	}
	re, ok := s.Lease("w2", 2, time.Minute)
	if !ok || len(re.Points) != 1 {
		t.Fatalf("unreported point not re-leasable: ok=%v points=%d", ok, len(re.Points))
	}
	if re.Points[0] != info.Points[1] {
		t.Fatalf("re-leased %+v, want the unreported %+v", re.Points[0], info.Points[1])
	}
}

// The spec rides the lease verbatim so workers can rebuild the grid.
func TestStoreLeaseCarriesSpec(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := json.RawMessage(`{"mechanisms":["MIN"]}`)
	if _, _, err := s.Submit("fp", "base", spec, storeGrid()); err != nil {
		t.Fatal(err)
	}
	info, ok := s.Lease("w1", 1, time.Minute)
	if !ok {
		t.Fatal("no lease")
	}
	if string(info.Spec) != string(spec) {
		t.Fatalf("lease spec = %s", info.Spec)
	}
	if info.JobName != "job-1" || info.TTLSeconds != 60 {
		t.Fatalf("lease info = %+v", info)
	}
}
