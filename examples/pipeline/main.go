// Pipeline: stream-style "hand-off" processing, one of the motivating
// applications the paper cites for synchronous queues.
//
// Three stages — tokenize, transform, emit — are connected by fair
// synchronous queues, so the pipeline has zero internal buffering: a stage
// finishing an item hands it directly to the next stage and observes
// backpressure immediately. The tokenizer is a batched stage: it hands the
// whole token burst over with one PutAllContext call (the items still
// rendezvous with the transformer one by one — batching amortizes the
// producer's claim-and-wait machinery, it does not introduce a buffer),
// and the emitter drains with TakeBatchContext, waiting only for the
// first item of each batch. A context cancels the whole pipeline
// mid-stream, demonstrating the cancellation-aware operations; the
// shutdown is clean because no element can be stranded in a buffer.
//
// Run with:
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"synchq"
)

func main() {
	words := synchq.New[string](synchq.Fair(true))
	shouts := synchq.New[string](synchq.Fair(true))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan struct{})

	// Stage 1: tokenize a document and hand the whole burst off with one
	// batched call. On a partial fill the error reports how far it got and
	// the retry slice holds the rest — here cancellation just ends the run.
	go func() {
		text := "the quick brown fox jumps over the lazy dog and keeps running forever"
		if n, err := words.PutAllContext(ctx, strings.Fields(text)); err != nil {
			fmt.Printf("tokenizer: stopping after %d words: %v\n", n, err)
		}
	}()

	// Stage 2: transform each word and hand it onward.
	go func() {
		for {
			w, err := words.TakeContext(ctx)
			if err != nil {
				fmt.Println("transformer: stopping:", err)
				return
			}
			out := strings.ToUpper(w) + "!"
			if err := shouts.PutContext(ctx, out); err != nil {
				fmt.Println("transformer: stopping:", err)
				return
			}
		}
	}()

	// Stage 3: emit the first eight results in batches — each TakeBatch
	// waits for one value and sweeps up whatever else is already committed
	// — then cancel everything.
	go func() {
		defer close(done)
		emitted := 0
		for emitted < 8 {
			batch, err := shouts.TakeBatchContext(ctx, 8-emitted)
			if err != nil {
				fmt.Println("emitter: stopping:", err)
				return
			}
			for _, s := range batch {
				emitted++
				fmt.Printf("emit %d: %s\n", emitted, s)
			}
		}
		fmt.Println("emitter: done — cancelling the rest of the stream")
		cancel()
	}()

	<-done
	// Give the upstream stages a moment to observe cancellation.
	time.Sleep(50 * time.Millisecond)
	fmt.Println("pipeline: shut down with no buffered residue:",
		words.IsEmpty() && shouts.IsEmpty())
}
