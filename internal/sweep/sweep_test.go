package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrderAndValues(t *testing.T) {
	p := New(4)
	tasks := make([]Task, 20)
	for i := range tasks {
		tasks[i] = Task{Do: func(context.Context) (any, error) { return i * i, nil }}
	}
	got, err := p.Run(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v.(int) != i*i {
			t.Fatalf("result[%d] = %v, want %d", i, v, i*i)
		}
	}
}

func TestRunDedupByKey(t *testing.T) {
	p := New(4)
	var execs atomic.Int64
	tasks := make([]Task, 12)
	for i := range tasks {
		key := fmt.Sprintf("cell-%d", i%3) // 3 distinct keys, 4 aliases each
		tasks[i] = Task{Key: key, Do: func(context.Context) (any, error) {
			execs.Add(1)
			return key, nil
		}}
	}
	got, err := p.Run(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if n := execs.Load(); n != 3 {
		t.Fatalf("executions = %d, want 3 (dedup by key)", n)
	}
	for i, v := range got {
		if want := fmt.Sprintf("cell-%d", i%3); v.(string) != want {
			t.Fatalf("result[%d] = %v, want %s", i, v, want)
		}
	}
}

func TestRunEmptyKeyNeverShared(t *testing.T) {
	p := New(2)
	var execs atomic.Int64
	tasks := make([]Task, 5)
	for i := range tasks {
		tasks[i] = Task{Do: func(context.Context) (any, error) {
			execs.Add(1)
			return nil, nil
		}}
	}
	if _, err := p.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if n := execs.Load(); n != 5 {
		t.Fatalf("executions = %d, want 5", n)
	}
}

// TestRunFirstErrorCancelsBatch uses a width-1 pool so the failing
// task deterministically precedes the queued ones: a wider pool's
// other workers may legitimately drain their blocks before the
// failure lands (cancellation is advisory for in-flight work).
func TestRunFirstErrorCancelsBatch(t *testing.T) {
	p := New(1)
	boom := errors.New("boom")
	var after atomic.Int64
	tasks := []Task{
		{Do: func(context.Context) (any, error) { return nil, boom }},
	}
	for i := 0; i < 50; i++ {
		tasks = append(tasks, Task{Do: func(context.Context) (any, error) {
			after.Add(1)
			return nil, nil
		}})
	}
	if _, err := p.Run(context.Background(), tasks); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := after.Load(); n != 0 {
		t.Fatalf("%d queued tasks ran despite batch failure", n)
	}
}

func TestRunContextCancel(t *testing.T) {
	p := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.Run(ctx, []Task{
		{Do: func(context.Context) (any, error) { return 1, nil }},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStealing pins that an idle worker takes work from a loaded
// victim's block: with 2 workers and a first block that parks on a
// channel, the second worker must execute its own block and then
// steal the parked worker's remaining jobs, or the batch (released
// only after the fast jobs finish) never completes.
func TestStealing(t *testing.T) {
	p := New(2)
	release := make(chan struct{})
	var fast atomic.Int64
	const fastJobs = 9
	tasks := []Task{
		// Job 0: first in worker 0's block; parks until the fast jobs
		// are done. Worker 0 contributes nothing else to the batch.
		{Do: func(context.Context) (any, error) {
			<-release
			return "slow", nil
		}},
	}
	for i := 0; i < fastJobs; i++ {
		tasks = append(tasks, Task{Do: func(context.Context) (any, error) {
			if fast.Add(1) == fastJobs {
				close(release)
			}
			return "fast", nil
		}})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := p.Run(context.Background(), tasks); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("batch deadlocked: fast jobs behind the parked worker were never stolen")
	}
}

// TestDoSharesBudget pins that Do callers and batch workers draw from
// one slot pool: a pool of width 1 never runs two executions at once.
func TestDoSharesBudget(t *testing.T) {
	p := New(1)
	var inFlight, maxFlight atomic.Int64
	body := func(context.Context) (any, error) {
		if f := inFlight.Add(1); f > maxFlight.Load() {
			maxFlight.Store(f)
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Do(context.Background(), body); err != nil {
				t.Error(err)
			}
		}()
	}
	tasks := make([]Task, 4)
	for i := range tasks {
		tasks[i] = Task{Do: body}
	}
	if _, err := p.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if m := maxFlight.Load(); m > 1 {
		t.Fatalf("max concurrent executions = %d on a width-1 pool", m)
	}
}

func TestDoCanceledWhileWaiting(t *testing.T) {
	p := New(1)
	hold := make(chan struct{})
	go p.Do(context.Background(), func(context.Context) (any, error) {
		<-hold
		return nil, nil
	})
	// Wait until the slot is taken.
	for len(p.slots) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Do(ctx, func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(hold)
}

// --- fork-join ---------------------------------------------------------------
//
// These run at the pool's default width, so `go test -cpu 1,2,8` covers
// the serial degenerate case, the sandbox's width and a wide pool.

// fib spawns a child for one branch, computes the other itself and
// waits: children that spawn grandchildren, at every depth.
func fib(ctx context.Context, n int) (int, error) {
	if n < 2 {
		return n, nil
	}
	f := Spawn(ctx, func(ctx context.Context) (any, error) { return fib(ctx, n-1) })
	b, err := fib(ctx, n-2)
	if err != nil {
		return 0, err
	}
	a, err := f.Wait(ctx)
	if err != nil {
		return 0, err
	}
	return a.(int) + b, nil
}

func TestSpawnWait(t *testing.T) {
	p := New(0)
	tasks := make([]Task, 3)
	for i := range tasks {
		tasks[i] = Task{Do: func(ctx context.Context) (any, error) { return fib(ctx, 12+i) }}
	}
	got, err := p.Run(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{144, 233, 377} {
		if got[i].(int) != want {
			t.Errorf("fib(%d) = %v, want %d", 12+i, got[i], want)
		}
	}
}

// TestSpawnOutsideABatchRunsInline: with a context no batch worker
// made, Spawn is a plain call and Wait returns its result.
func TestSpawnOutsideABatchRunsInline(t *testing.T) {
	ran := false
	f := Spawn(context.Background(), func(context.Context) (any, error) {
		ran = true
		return 7, nil
	})
	if !ran {
		t.Fatal("Spawn returned before running fn")
	}
	if v, err := f.Wait(context.Background()); err != nil || v.(int) != 7 {
		t.Fatalf("Wait = %v, %v", v, err)
	}
	if v, err := New(2).Do(context.Background(), func(ctx context.Context) (any, error) { return fib(ctx, 10) }); err != nil || v.(int) != 55 {
		t.Fatalf("fib under Do = %v, %v", v, err)
	}
}

func TestSpawnedChildErrorFailsTheBatch(t *testing.T) {
	p := New(0)
	boom := errors.New("boom")
	var waited error
	_, err := p.Run(context.Background(), []Task{{Do: func(ctx context.Context) (any, error) {
		f := Spawn(ctx, func(context.Context) (any, error) { return nil, boom })
		_, waited = f.Wait(ctx)
		return nil, nil // the parent swallows it; the batch must not
	}}})
	if !errors.Is(err, boom) {
		t.Fatalf("Run err = %v, want %v", err, boom)
	}
	if !errors.Is(waited, boom) {
		t.Fatalf("Wait err = %v, want %v", waited, boom)
	}
}

func TestRunWaitsForChildrenNobodyWaitedFor(t *testing.T) {
	p := New(0)
	const children = 40
	var ran atomic.Int64
	tasks := make([]Task, 4)
	for i := range tasks {
		tasks[i] = Task{Do: func(ctx context.Context) (any, error) {
			for c := 0; c < children; c++ {
				Spawn(ctx, func(ctx context.Context) (any, error) {
					Spawn(ctx, func(context.Context) (any, error) {
						ran.Add(1)
						return nil, nil
					})
					ran.Add(1)
					return nil, nil
				})
			}
			return i, nil
		}}
	}
	got, err := p.Run(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 4*children*2 {
		t.Fatalf("%d of %d children had run when Run returned", n, 4*children*2)
	}
	for i, v := range got {
		if v.(int) != i {
			t.Fatalf("result[%d] = %v", i, v)
		}
	}
}

// TestCancelWhileWaiting: a parent waiting for a child that only ends
// with the context must come back when the context does.
func TestCancelWhileWaiting(t *testing.T) {
	p := New(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(ctx, []Task{{Do: func(ctx context.Context) (any, error) {
			f := Spawn(ctx, func(ctx context.Context) (any, error) {
				cancel()
				<-ctx.Done()
				return nil, ctx.Err()
			})
			_, err := f.Wait(ctx)
			return nil, err
		}}})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

// TestSpawnedChildrenAreStolen: one root task on a wider pool. The
// batch starts one worker; the child must bring in a second, because
// the root does not wait for it — it blocks until the child has run.
func TestSpawnedChildrenAreStolen(t *testing.T) {
	p := New(0)
	if p.Workers() < 2 {
		t.Skip("needs a pool at least two wide")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := p.Run(context.Background(), []Task{{Do: func(ctx context.Context) (any, error) {
			ran := make(chan struct{})
			Spawn(ctx, func(context.Context) (any, error) {
				close(ran)
				return nil, nil
			})
			<-ran
			return nil, nil
		}}})
		if err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the child of a lone root task was never stolen")
	}
}

// TestWaiterRunsNoRootTask: at width one the waiting worker is the only
// one there is, so whatever runs during the wait ran on it. It must be
// the children, and never the second root task queued behind them.
func TestWaiterRunsNoRootTask(t *testing.T) {
	p := New(1)
	waiting := false
	_, err := p.Run(context.Background(), []Task{
		{Do: func(ctx context.Context) (any, error) {
			var fs []*Future
			for i := 0; i < 5; i++ {
				fs = append(fs, Spawn(ctx, func(context.Context) (any, error) { return i, nil }))
			}
			waiting = true
			for i, f := range fs {
				if v, err := f.Wait(ctx); err != nil || v.(int) != i {
					return nil, fmt.Errorf("child %d = %v, %v", i, v, err)
				}
			}
			waiting = false
			return nil, nil
		}},
		{Do: func(context.Context) (any, error) {
			if waiting {
				return nil, errors.New("a root task ran inside another task's Wait")
			}
			return nil, nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSpawnSharesBudget: root tasks, children run by waiters, stolen
// children and Do callers together never execute on more goroutines
// than the pool is wide. Only bodies count, not a parent parked in
// Wait: its worker is the one running the child.
func TestSpawnSharesBudget(t *testing.T) {
	p := New(0)
	var inFlight, maxFlight atomic.Int64
	body := func() {
		f := inFlight.Add(1)
		for {
			m := maxFlight.Load()
			if f <= m || maxFlight.CompareAndSwap(m, f) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		inFlight.Add(-1)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Do(context.Background(), func(context.Context) (any, error) { body(); return nil, nil }); err != nil {
				t.Error(err)
			}
		}()
	}
	tasks := make([]Task, 6)
	for i := range tasks {
		tasks[i] = Task{Do: func(ctx context.Context) (any, error) {
			body()
			var fs []*Future
			for c := 0; c < 6; c++ {
				fs = append(fs, Spawn(ctx, func(context.Context) (any, error) { body(); return nil, nil }))
			}
			for _, f := range fs {
				if _, err := f.Wait(ctx); err != nil {
					return nil, err
				}
			}
			body()
			return nil, nil
		}}
	}
	if _, err := p.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if m := maxFlight.Load(); m > int64(p.Workers()) {
		t.Fatalf("%d bodies in flight on a pool %d wide", m, p.Workers())
	}
}

// TestBatchesThatForkDoNotHoldEachOthersSlots: two batches of one root
// task each on a pool two wide. Each forks, so each launches a second
// worker, and neither of those can have a slot while both roots run. A
// batch must end without that worker, or the two park for ever on
// slots their idle first workers hold.
func TestBatchesThatForkDoNotHoldEachOthersSlots(t *testing.T) {
	p := New(2)
	var both sync.WaitGroup
	both.Add(2)
	root := Task{Do: func(ctx context.Context) (any, error) {
		both.Done()
		both.Wait() // both slots are taken from here on
		f := Spawn(ctx, func(context.Context) (any, error) { return nil, nil })
		return f.Wait(ctx)
	}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := p.Run(context.Background(), []Task{root}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("two forking batches deadlocked on the pool's slots")
	}
}
