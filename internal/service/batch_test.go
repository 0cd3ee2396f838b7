package service

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"uhm/internal/core"
	"uhm/internal/faultinject"
)

// TestBatchPartialFailure: one malformed item 422s on its own while its
// siblings succeed, and the whole batch costs exactly one admission.
func TestBatchPartialFailure(t *testing.T) {
	svc := New(Options{Workers: 1})
	cfg := core.DefaultConfig()
	ctx := context.Background()

	type item struct {
		name, src string
	}
	items := []item{
		{"good-loop", chaosSources[0].src},
		{"bad", "this is not minilang"},
		{"good-calls", chaosSources[1].src},
	}
	outs := make([][]int64, len(items))
	errs := make([]error, len(items))
	err := svc.Admit(ctx, func(ctx context.Context, b *Runner) error {
		for i, it := range items {
			rep, err := b.Run(ctx, sourceReq(it.name, it.src, cfg), core.WithDTB)
			errs[i] = err
			if rep != nil {
				outs[i] = rep.Output
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("batch failed as a whole: %v", err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("sibling items failed: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("malformed item did not fail")
	}
	want0, _ := core.BuildSource(items[0].name, items[0].src, core.LevelStack)
	ref0, _ := want0.Reference()
	if !slices.Equal(outs[0], ref0) {
		t.Fatalf("item 0 output %v, want %v", outs[0], ref0)
	}
	st := svc.Stats()
	if st.Requests.Overloads != 0 {
		t.Fatalf("batch tripped admission: %+v", st.Requests)
	}
	// The failed build is not cached; the two good artifacts are.
	if st.Registry.Entries != 2 || st.Registry.BuildErrors != 1 {
		t.Fatalf("registry after batch = %+v, want 2 entries, 1 build error", st.Registry)
	}
}

// TestBatchHoldsOneSlot: a many-item batch on a one-worker service holds
// exactly one slot — a concurrent plain request queues behind it rather than
// finding the service wedged by per-item admissions (which would deadlock:
// the batch waiting on slots it already holds).
func TestBatchHoldsOneSlot(t *testing.T) {
	svc := New(Options{Workers: 1, QueueTimeout: 5 * time.Second})
	cfg := core.DefaultConfig()
	ctx := context.Background()

	entered := make(chan struct{})
	releaseBatch := make(chan struct{})
	batchDone := make(chan error, 1)
	go func() {
		batchDone <- svc.Admit(ctx, func(ctx context.Context, b *Runner) error {
			for i := 0; i < 4; i++ {
				if _, err := b.Run(ctx, workloadReq("fib", cfg), core.WithDTB); err != nil {
					return err
				}
			}
			close(entered)
			<-releaseBatch
			return nil
		})
	}()

	<-entered
	// The lone slot is held by the batch: a plain request must queue, then
	// succeed once the batch releases.
	reqDone := make(chan error, 1)
	go func() {
		_, err := svc.Run(ctx, workloadReq("sieve", cfg), core.WithDTB)
		reqDone <- err
	}()
	select {
	case err := <-reqDone:
		t.Fatalf("request did not queue behind the batch's slot (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(releaseBatch)
	if err := <-batchDone; err != nil {
		t.Fatalf("batch: %v", err)
	}
	if err := <-reqDone; err != nil {
		t.Fatalf("queued request failed after the batch drained: %v", err)
	}
}

// TestBatchReleasesSlotOnPanic: a panic escaping the Admit callback still
// releases the admission slot (the deferred release is the backstop), so the
// service keeps serving.
func TestBatchReleasesSlotOnPanic(t *testing.T) {
	svc := New(Options{Workers: 1, QueueTimeout: 2 * time.Second})
	cfg := core.DefaultConfig()
	ctx := context.Background()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate out of Admit")
			}
		}()
		_ = svc.Admit(ctx, func(ctx context.Context, b *Runner) error {
			panic("handler bug in the batch loop")
		})
	}()

	// The lone slot must be free again: a plain request is admitted and runs.
	if _, err := svc.Run(ctx, workloadReq("fib", cfg), core.WithDTB); err != nil {
		t.Fatalf("service wedged after batch panic: %v", err)
	}
	if st := svc.Stats(); st.Requests.Overloads != 0 {
		t.Fatalf("slot leaked: %+v", st.Requests)
	}
}

// TestBatchItemPanicIsolated: an injected run panic inside one item surfaces
// as that item's typed *PanicError (artifact quarantined), while sibling
// items and the batch envelope succeed.
func TestBatchItemPanicIsolated(t *testing.T) {
	svc := New(Options{Workers: 2})
	cfg := core.DefaultConfig()
	ctx := context.Background()

	// Arm a single panic on the second service/run visit: the first item
	// passes, the second crashes, the third must still pass.
	plan := faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteServiceRun, Probability: 1, After: 1, Count: 1,
		Mode: faultinject.ModePanic,
	})
	restore := faultinject.Activate(plan)
	defer restore()

	names := []string{"chaos-loop", "chaos-calls", "chaos-array"}
	errs := make([]error, len(names))
	err := svc.Admit(ctx, func(ctx context.Context, b *Runner) error {
		for i, name := range names {
			_, errs[i] = b.Run(ctx, sourceReq(name, chaosSources[i].src, cfg), core.WithDTB)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("batch envelope failed: %v", err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("sibling items failed around the panicking one: %v / %v", errs[0], errs[2])
	}
	var pe *PanicError
	if !errors.As(errs[1], &pe) {
		t.Fatalf("crashed item error = %v, want *PanicError", errs[1])
	}
	st := svc.Stats()
	if st.Requests.Panics != 1 || st.Registry.Quarantined != 1 {
		t.Fatalf("stats after item panic = %+v / %+v, want 1 panic, 1 quarantined",
			st.Requests, st.Registry)
	}
	if st.Pool.Leased != 0 {
		t.Fatalf("%d replayers leaked across the item panic", st.Pool.Leased)
	}
}
