package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := New(1)
	var woke time.Duration
	k.Go(func() {
		if err := k.Sleep(3 * time.Second); err != nil {
			t.Errorf("sleep: %v", err)
		}
		woke = k.Now()
	})
	start := time.Now()
	k.RunUntilIdle()
	if woke != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", woke)
	}
	if real := time.Since(start); real > time.Second {
		t.Fatalf("3s of virtual time took %v of real time", real)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", k.LiveProcs())
	}
}

func TestEventOrdering(t *testing.T) {
	k := New(1)
	var order []string
	for _, spec := range []struct {
		name  string
		delay time.Duration
	}{
		{"c", 30 * time.Millisecond},
		{"a", 10 * time.Millisecond},
		{"b", 20 * time.Millisecond},
		{"a2", 10 * time.Millisecond}, // same time as a: schedule order breaks the tie
	} {
		spec := spec
		k.Go(func() {
			k.Sleep(spec.delay)
			order = append(order, spec.name)
		})
	}
	k.RunUntilIdle()
	want := "a,a2,b,c"
	got := ""
	for i, s := range order {
		if i > 0 {
			got += ","
		}
		got += s
	}
	if got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	k := New(1)
	var fired []time.Duration
	for i := 1; i <= 5; i++ {
		d := time.Duration(i) * time.Second
		k.Go(func() {
			k.Sleep(d)
			fired = append(fired, k.Now())
		})
	}
	k.Run(2500 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(fired))
	}
	if k.Now() != 2500*time.Millisecond {
		t.Fatalf("now = %v, want horizon", k.Now())
	}
	k.RunUntilIdle()
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestSerializedExecution(t *testing.T) {
	// At most one process may execute user code at any instant.
	k := New(1)
	var inside int32
	for i := 0; i < 50; i++ {
		k.Go(func() {
			for j := 0; j < 20; j++ {
				if n := atomic.AddInt32(&inside, 1); n != 1 {
					t.Errorf("%d processes running concurrently", n)
				}
				// Busy section with a reschedule in the middle.
				atomic.AddInt32(&inside, -1)
				k.Sleep(time.Millisecond)
			}
		})
	}
	k.RunUntilIdle()
}

func TestFutureResolveBeforeAwait(t *testing.T) {
	k := New(1)
	f := k.NewFuture()
	var got any
	k.Go(func() {
		f.Resolve("early")
		k.Sleep(time.Second)
	})
	k.Go(func() {
		k.Sleep(2 * time.Second) // resolve happens long before
		v, err := f.Await(0)
		if err != nil {
			t.Errorf("await: %v", err)
		}
		got = v
	})
	k.RunUntilIdle()
	if got != "early" {
		t.Fatalf("got %v", got)
	}
}

func TestFutureAwaitBeforeResolve(t *testing.T) {
	k := New(1)
	f := k.NewFuture()
	var got any
	var when time.Duration
	k.Go(func() {
		v, err := f.Await(0)
		if err != nil {
			t.Errorf("await: %v", err)
		}
		got, when = v, k.Now()
	})
	k.Go(func() {
		k.Sleep(5 * time.Second)
		f.Resolve(42)
	})
	k.RunUntilIdle()
	if got != 42 || when != 5*time.Second {
		t.Fatalf("got %v at %v", got, when)
	}
}

func TestFutureTimeout(t *testing.T) {
	k := New(1)
	f := k.NewFuture()
	var err error
	var when time.Duration
	k.Go(func() {
		_, err = f.Await(time.Second)
		when = k.Now()
	})
	k.RunUntilIdle()
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if when != time.Second {
		t.Fatalf("timed out at %v", when)
	}
}

func TestFutureResolveWinsOverLaterTimeout(t *testing.T) {
	k := New(1)
	f := k.NewFuture()
	var got any
	var err error
	k.Go(func() {
		got, err = f.Await(10 * time.Second)
	})
	k.Go(func() {
		k.Sleep(time.Second)
		f.Resolve("fast")
	})
	k.RunUntilIdle()
	if err != nil || got != "fast" {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestFutureDoubleResolveIgnored(t *testing.T) {
	k := New(1)
	f := k.NewFuture()
	var got any
	k.Go(func() {
		f.Resolve("first")
		f.Resolve("second")
	})
	k.Go(func() {
		k.Sleep(time.Second)
		got, _ = f.Await(0)
	})
	k.RunUntilIdle()
	if got != "first" {
		t.Fatalf("got %v, want first", got)
	}
}

func TestFutureResolveAfterTimeoutIsNoop(t *testing.T) {
	k := New(1)
	f := k.NewFuture()
	var err error
	k.Go(func() {
		_, err = f.Await(time.Second)
	})
	k.Go(func() {
		k.Sleep(5 * time.Second)
		f.Resolve("too late")
	})
	k.RunUntilIdle()
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestTimerFiresAndCancels(t *testing.T) {
	k := New(1)
	var fired, canceledFired bool
	k.After(time.Second, func() { fired = true })
	tm := k.After(2*time.Second, func() { canceledFired = true })
	k.Go(func() {
		k.Sleep(1500 * time.Millisecond)
		if !tm.Cancel() {
			t.Error("cancel should succeed before firing")
		}
	})
	k.RunUntilIdle()
	if !fired {
		t.Fatal("timer did not fire")
	}
	if canceledFired {
		t.Fatal("canceled timer fired")
	}
	// Cancel after fire reports false.
	tm2 := k.After(time.Millisecond, func() {})
	k.RunUntilIdle()
	if tm2.Cancel() {
		t.Fatal("cancel after firing must report false")
	}
}

// An RPC-shaped ping-pong: the client sends a request by scheduling a
// delivery event; the server process resolves the reply future.
func TestRPCPingPong(t *testing.T) {
	k := New(1)
	const latency = 100 * time.Millisecond
	var rtt time.Duration
	k.Go(func() {
		start := k.Now()
		reply := k.NewFuture()
		k.After(latency, func() { // request arrives at server
			k.Sleep(10 * time.Millisecond) // server work
			k.After(latency, func() {      // reply travels back
				reply.Resolve("pong")
			})
		})
		v, err := reply.Await(0)
		if err != nil || v != "pong" {
			t.Errorf("reply = %v, %v", v, err)
		}
		rtt = k.Now() - start
	})
	k.RunUntilIdle()
	if rtt != 210*time.Millisecond {
		t.Fatalf("rtt = %v, want 210ms", rtt)
	}
}

func TestStopReleasesBlockedProcs(t *testing.T) {
	k := New(1)
	sleepErrCh := make(chan error, 1)
	awaitErrCh := make(chan error, 1)
	k.Go(func() {
		sleepErrCh <- k.Sleep(time.Hour)
	})
	k.Go(func() {
		_, err := k.NewFuture().Await(0)
		awaitErrCh <- err
	})
	k.Go(func() {
		k.Sleep(time.Second)
		k.Stop()
	})
	k.Run(2 * time.Hour)
	if err := <-sleepErrCh; !errors.Is(err, core.ErrStopped) {
		t.Fatalf("sleep err = %v", err)
	}
	if err := <-awaitErrCh; !errors.Is(err, core.ErrStopped) {
		t.Fatalf("await err = %v", err)
	}
	if !k.Stopped() {
		t.Fatal("kernel should report stopped")
	}
}

func TestNewRandStreamsIndependentAndSeeded(t *testing.T) {
	a1 := New(7).NewRand("x")
	a2 := New(7).NewRand("x")
	b := New(7).NewRand("y")
	c := New(8).NewRand("x")
	sameAsA1 := 0
	diffLabel, diffSeed := 0, 0
	for i := 0; i < 100; i++ {
		v1 := a1.Uint64()
		if v1 == a2.Uint64() {
			sameAsA1++
		}
		if v1 == b.Uint64() {
			diffLabel++
		}
		if v1 == c.Uint64() {
			diffSeed++
		}
	}
	if sameAsA1 != 100 {
		t.Fatal("same seed+label must give identical streams")
	}
	if diffLabel > 2 || diffSeed > 2 {
		t.Fatal("different label/seed must give different streams")
	}
}

// Determinism: an entire simulation with many interleaved processes must
// produce an identical trace when repeated with the same seed.
func TestDeterministicReplay(t *testing.T) {
	run := func() string {
		k := New(99)
		rng := k.NewRand("trace")
		trace := ""
		for p := 0; p < 10; p++ {
			p := p
			k.Go(func() {
				for i := 0; i < 20; i++ {
					k.Sleep(time.Duration(rng.Intn(1000)) * time.Millisecond)
					trace += fmt.Sprintf("%d@%v;", p, k.Now())
				}
			})
		}
		k.RunUntilIdle()
		return trace
	}
	t1 := run()
	t2 := run()
	if t1 != t2 {
		t.Fatalf("replay diverged:\n%s\nvs\n%s", t1, t2)
	}
	if t1 == "" {
		t.Fatal("empty trace")
	}
}

func TestGoAfterStopIsNoop(t *testing.T) {
	k := New(1)
	k.Stop()
	k.Go(func() { t.Error("process ran after stop") })
	k.RunUntilIdle()
	tm := k.After(time.Second, func() { t.Error("timer ran after stop") })
	if tm.Cancel() {
		t.Fatal("timer created after stop should already be inert")
	}
}

func TestEventsCounter(t *testing.T) {
	k := New(1)
	for i := 0; i < 5; i++ {
		k.Go(func() { k.Sleep(time.Millisecond) })
	}
	k.RunUntilIdle()
	// 5 spawn events + 5 wake events.
	if got := k.Events(); got != 10 {
		t.Fatalf("events = %d, want 10", got)
	}
}

// nopArg is a package-level callback so scheduling it allocates no
// closure — the alloc tests below depend on that.
func nopArg(any) {}

// TestSimultaneousDeadlinesFireInScheduleOrder schedules many callbacks
// at the identical virtual instant; the seq tie-break must dispatch them
// in exact schedule order.
func TestSimultaneousDeadlinesFireInScheduleOrder(t *testing.T) {
	k := New(1)
	defer k.Stop()
	const n = 64
	var got []int
	for i := 0; i < n; i++ {
		k.AfterCall(time.Millisecond, func(x any) { got = append(got, x.(int)) }, i)
	}
	k.RunUntilIdle()
	if len(got) != n {
		t.Fatalf("fired %d of %d callbacks", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("fire order diverged at %d: got %v", i, got[:i+1])
		}
	}
}

// TestCancelEveryOtherTimer arms timers at ascending deadlines and
// cancels every other one; only the survivors may fire, still in
// deadline order, and a fired timer's Cancel must report false.
func TestCancelEveryOtherTimer(t *testing.T) {
	k := New(2)
	defer k.Stop()
	const n = 48
	var mu sync.Mutex
	var fired []int
	timers := make([]*Timer, n)
	for i := 0; i < n; i++ {
		timers[i] = k.After(time.Duration(i+1)*time.Millisecond, func() {
			mu.Lock()
			fired = append(fired, i)
			mu.Unlock()
		})
	}
	for i := 0; i < n; i += 2 {
		if !timers[i].Cancel() {
			t.Fatalf("timer %d: Cancel returned false before firing", i)
		}
	}
	k.RunUntilIdle()
	mu.Lock()
	defer mu.Unlock()
	if want := n / 2; len(fired) != want {
		t.Fatalf("%d timers fired, want %d", len(fired), want)
	}
	for j, v := range fired {
		if want := 2*j + 1; v != want {
			t.Fatalf("fire order diverged at %d: got %d, want %d", j, v, want)
		}
	}
	for i := 1; i < n; i += 2 {
		if timers[i].Cancel() {
			t.Fatalf("timer %d: Cancel returned true after firing", i)
		}
	}
}

// checkHeap asserts the queue's heap order and that every event knows
// its own index.
func checkHeap(t *testing.T, k *Kernel) {
	t.Helper()
	k.mu.Lock()
	defer k.mu.Unlock()
	for i, ev := range k.queue {
		if int(ev.index) != i {
			t.Fatalf("event at %d records index %d", i, ev.index)
		}
		if i > 0 && less(ev, k.queue[(i-1)/2]) {
			t.Fatalf("heap order broken at %d", i)
		}
	}
}

// TestCancelLastAndMiddleOfHeap drives remove() down each of its paths:
// the last entry (no swap), a middle entry whose swapped-in replacement
// must sift up, and one whose replacement must sift down.
func TestCancelLastAndMiddleOfHeap(t *testing.T) {
	k := New(3)
	defer k.Stop()
	var got []int
	arm := func(ms int) *Timer {
		return k.After(time.Duration(ms)*time.Millisecond, func() { got = append(got, ms) })
	}
	index := func(tm *Timer) int32 {
		k.mu.Lock()
		defer k.mu.Unlock()
		return tm.ev.index
	}
	// No push sifts up, so the heap is [1 10 2 11 12 3] in push order.
	timers := map[int]*Timer{}
	for _, ms := range []int{1, 10, 2, 11, 12, 3} {
		timers[ms] = arm(ms)
	}
	if i := index(timers[3]); i != 5 {
		t.Fatalf("3 ms timer at index %d, want the last slot 5", i)
	}
	timers[3].Cancel() // the last entry: nothing to swap in
	checkHeap(t, k)

	timers[3] = arm(3) // back in the last slot, under 2
	if i := index(timers[11]); i != 3 {
		t.Fatalf("11 ms timer at index %d, want 3", i)
	}
	timers[11].Cancel() // 3 swaps into slot 3 and sifts up past 10
	checkHeap(t, k)
	if i := index(timers[3]); i != 1 {
		t.Fatalf("3 ms timer at index %d after sift-up, want 1", i)
	}

	timers[3].Cancel() // 12 swaps into slot 1 and sifts down past 10
	checkHeap(t, k)
	if i := index(timers[12]); i != 3 {
		t.Fatalf("12 ms timer at index %d after sift-down, want 3", i)
	}

	k.RunUntilIdle()
	if want := []int{1, 2, 10, 12}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestDispatchOrderIsSortedByAtSeq is the queue's property test: seeded
// random interleavings of AfterCall, After, Cancel and partial Runs must
// dispatch exactly the surviving events, in the order that sorting them
// by (at, seq) gives.
func TestDispatchOrderIsSortedByAtSeq(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New(seed)
		type sched struct {
			id int
			at time.Duration
		}
		var all []sched
		canceled := map[int]bool{}
		var timers []*Timer
		var timerIDs []int
		var mu sync.Mutex
		var got []int
		record := func(x any) {
			mu.Lock()
			got = append(got, x.(int))
			mu.Unlock()
		}
		for round := 0; round < 30; round++ {
			for j := rng.Intn(12); j > 0; j-- {
				id := len(all)
				d := time.Duration(rng.Intn(8)) * time.Millisecond
				all = append(all, sched{id, k.Now() + d})
				if rng.Intn(2) == 0 {
					k.AfterCall(d, record, id)
				} else {
					timers = append(timers, k.After(d, func() { record(id) }))
					timerIDs = append(timerIDs, id)
				}
			}
			for j := rng.Intn(4); j > 0 && len(timers) > 0; j-- {
				i := rng.Intn(len(timers))
				if timers[i].Cancel() {
					canceled[timerIDs[i]] = true
				}
			}
			k.Run(k.Now() + time.Duration(rng.Intn(4))*time.Millisecond)
		}
		k.RunUntilIdle()
		k.Stop()
		// ids are handed out in schedule order, so they sort like seq.
		var want []int
		sort.SliceStable(all, func(a, b int) bool { return all[a].at < all[b].at })
		for _, s := range all {
			if !canceled[s.id] {
				want = append(want, s.id)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: dispatched %v, want %v", seed, got, want)
		}
	}
}

// TestConcurrentScheduleCancelRace hammers the shared queue from many
// OS threads while the kernel drains it — the -race regression test for
// the push/remove/dispatch paths.
func TestConcurrentScheduleCancelRace(t *testing.T) {
	k := New(4)
	defer k.Stop()
	var fired atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				tm := k.After(time.Duration(1+(g+i)%13)*time.Millisecond, func() { fired.Add(1) })
				k.AfterCall(time.Duration(1+i%7)*time.Millisecond, nopArg, nil)
				if i%3 == 0 {
					tm.Cancel()
				}
			}
		}(g)
	}
	producersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(producersDone)
	}()
	// Drain concurrently with the producers, then finish the tail.
	draining := true
	for draining {
		select {
		case <-producersDone:
			draining = false
		default:
			k.Run(k.Now() + time.Millisecond)
		}
	}
	k.RunUntilIdle()
	if fired.Load() == 0 {
		t.Fatal("no timers fired under the hammer")
	}
	if k.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d events left", k.QueueLen())
	}
}

// TestQueueLen checks the queue count through scheduling, cancelling
// and draining.
func TestQueueLen(t *testing.T) {
	k := New(5)
	defer k.Stop()
	timers := make([]*Timer, 20)
	for i := range timers {
		timers[i] = k.After(time.Duration(i+1)*time.Second, func() {})
	}
	if got := k.QueueLen(); got != 20 {
		t.Fatalf("QueueLen = %d, want 20", got)
	}
	for i := 0; i < 10; i++ {
		timers[i].Cancel()
	}
	if got := k.QueueLen(); got != 10 {
		t.Fatalf("QueueLen after cancels = %d, want 10", got)
	}
	k.RunUntilIdle()
	if got := k.QueueLen(); got != 0 {
		t.Fatalf("QueueLen after drain = %d, want 0", got)
	}
}

// TestAfterCallSteadyStateAllocations pins the schedule/fire hot path:
// once the free list is warm, an AfterCall round trip through the queue
// must not allocate at all.
func TestAfterCallSteadyStateAllocations(t *testing.T) {
	k := New(6)
	defer k.Stop()
	// Warm the event free list.
	for i := 0; i < 100; i++ {
		k.AfterCall(time.Millisecond, nopArg, nil)
	}
	k.RunUntilIdle()
	allocs := testing.AllocsPerRun(200, func() {
		k.AfterCall(time.Millisecond, nopArg, nil)
		k.RunUntilIdle()
	})
	if allocs > 0 {
		t.Errorf("AfterCall schedule/fire path allocates %.2f objects/op, want 0", allocs)
	}
}

// TestTimerFireAllocations pins the After path: one Timer object plus
// the fired goroutine — the budget is small and must not creep.
func TestTimerFireAllocations(t *testing.T) {
	k := New(7)
	defer k.Stop()
	fn := func() {}
	for i := 0; i < 100; i++ {
		k.After(time.Millisecond, fn)
	}
	k.RunUntilIdle()
	allocs := testing.AllocsPerRun(200, func() {
		k.After(time.Millisecond, fn)
		k.RunUntilIdle()
	})
	if allocs > 6 {
		t.Errorf("After schedule/fire path allocates %.2f objects/op, want <= 6", allocs)
	}
}
