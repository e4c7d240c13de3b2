// Command durability walks the durable-index lifecycle end to end:
// open a data directory, ingest through the write-ahead log, crash
// without any shutdown path, recover, verify nothing acknowledged was
// lost, then checkpoint and show the log truncating.
//
//	go run ./examples/durability
package main

import (
	"fmt"
	"log"
	"os"

	"lccs"
)

func main() {
	dir, err := os.MkdirTemp("", "lccs-durability")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The Config seeds a fresh directory; after the first checkpoint
	// the snapshot container carries the resolved configuration.
	cfg := lccs.DurableConfig{
		Config: lccs.Config{Metric: lccs.Euclidean, M: 16, BucketWidth: 4},
		Sync:   lccs.SyncAlways, // every acked write is fsynced (group-committed)
	}

	// ---- first process: ingest, then "crash" ----
	di, err := lccs.OpenDurable(dir, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ids, err := di.AddBatch([][]float32{
		{0, 0}, {1, 0}, {0, 1}, {5, 5}, {9, 9},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("inserted ids:", ids)
	if deleted, _, err := di.DeleteBatch([]int{3}); deleted != 1 || err != nil {
		log.Fatalf("delete: %d %v", deleted, err)
	}
	fmt.Println("deleted id 3 (durably)")
	st := di.WALStats()
	fmt.Printf("WAL before crash: depth=%d records, %d bytes, %d fsyncs\n",
		st.Depth, st.Bytes, st.Fsyncs)
	// Crash: no Checkpoint, no Close. Everything acknowledged is in
	// the log; the in-memory index simply vanishes.
	di = nil

	// ---- second process: recover ----
	di2, err := lccs.OpenDurable(dir, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer di2.Close()
	rec := di2.Recovery()
	fmt.Printf("recovered: %d records replayed from %d segments in %v\n",
		rec.Records, rec.Segments, rec.Duration)
	fmt.Println("live vectors after recovery:", di2.Len())

	res, err := di2.Search([]float32{5, 5}, 3)
	if err != nil {
		log.Fatal(err)
	}
	for _, nb := range res {
		fmt.Printf("  neighbor id=%d dist=%.2f\n", nb.ID, nb.Dist)
	}

	// The watermark survived too: a new insert never reuses id 3.
	id, err := di2.Add([]float32{2, 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("next id after recovery:", id)

	// ---- checkpoint: snapshot + log truncation ----
	info, err := di2.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: generation %d, %d live vectors → %s (WAL truncated through LSN %d)\n",
		info.Generation, info.Live, info.Container, info.LSN)
	fmt.Println("WAL depth after checkpoint:", di2.WALStats().Depth)
}
