package main

import (
	"sync"
	"testing"
	"time"

	"lccs"
	"lccs/internal/engine"
	"lccs/internal/faultfs"
	"lccs/internal/obs"
	"lccs/internal/wal"
)

// TestCheckpointStopJoinsTheLoop: once the checkpoint loop's stop has
// returned, no checkpoint is in flight and none starts, so the drain's
// own checkpoints and the registry's close never race one. With a 1 ms
// interval and writes into two collections that never pause, no
// collection's manifest generation moves after the stop.
func TestCheckpointStopJoinsTheLoop(t *testing.T) {
	logger = obs.NopLogger()
	root := t.TempDir()
	eng, err := engine.New(root, engine.Spec{Metric: "euclidean", M: 8, Seed: 1, BucketWidth: 4, Sync: "none"}, logger)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Create("tenant", engine.Spec{}); err != nil {
		t.Fatal(err)
	}
	colls := eng.Loaded()
	generations := func() []uint64 {
		var out []uint64
		for _, c := range colls {
			man, err := wal.ReadManifest(faultfs.OS{}, c.Dynamic().Dir())
			if err != nil {
				t.Fatal(err)
			}
			var gen uint64
			if man != nil {
				gen = man.Generation
			}
			out = append(out, gen)
		}
		return out
	}

	quit := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range colls {
		wg.Add(1)
		go func(d *lccs.DynamicIndex) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				if _, err := d.Add([]float32{float32(i), 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c.Dynamic())
	}
	defer func() {
		close(quit)
		wg.Wait()
	}()
	// Each cycle stops the loop right after a sweep checkpointed the first
	// collection, while that sweep is still on its way to the second.
	for cycle := 0; cycle < 10; cycle++ {
		stop := startCheckpoints(eng, time.Millisecond, 0)
		first := generations()[0]
		for deadline := time.Now().Add(10 * time.Second); generations()[0] == first; {
			if time.Now().After(deadline) {
				stop()
				t.Fatalf("no checkpoint in 10 s of 1 ms intervals")
			}
		}
		stop()
		before := generations()
		// Nothing may happen, so there is no event to wait on: a sweep the
		// stop left running finishes its checkpoint within milliseconds.
		time.Sleep(20 * time.Millisecond)
		if after := generations(); after[0] != before[0] || after[1] != before[1] {
			t.Fatalf("cycle %d: manifest generations moved after the stop returned: %v → %v", cycle, before, after)
		}
	}
}
