// Sentiment analysis (the paper's IMDB workload): trains the same
// single-loss classifier under every optimization mode with identical
// data and seeds, then compares final loss, accuracy and the modeled
// footprint — the library-level view of paper Table II and Fig. 18.
package main

import (
	"context"
	"fmt"
	"log"

	"etalstm"
)

func main() {
	bench, err := etalstm.BenchmarkByName("IMDB")
	if err != nil {
		log.Fatal(err)
	}
	small := bench.Scaled(64, 16, 8)
	const epochs = 12
	evalProv := small.Provider(4, 1000)

	fmt.Printf("%-12s %10s %10s %14s\n", "mode", "final loss", "accuracy", "footprint (GB)")
	for _, mode := range []etalstm.Mode{etalstm.Baseline, etalstm.MS1, etalstm.MS2, etalstm.Combined} {
		net, err := etalstm.NewNetwork(small.Cfg, 42)
		if err != nil {
			log.Fatal(err)
		}
		trainer := etalstm.NewTrainer(net, mode, etalstm.TrainerOptions{})
		if _, err := trainer.Run(context.Background(), small.Provider(4, 1), epochs); err != nil {
			log.Fatal(err)
		}
		loss, acc, err := etalstm.Evaluate(net, evalProv)
		if err != nil {
			log.Fatal(err)
		}
		fp := etalstm.Analyze(bench.Cfg, mode).Footprint
		fmt.Printf("%-12s %10.4f %9.1f%% %14.2f\n",
			mode, loss, 100*acc, float64(fp.Total())/1e9)
	}
	fmt.Println("\nThe optimized modes track the baseline's quality (paper Table II: <1%")
	fmt.Println("difference) while the footprint at the paper's geometry shrinks (Fig. 18).")
}
