// Materialization: demonstrates the engine's staged reader (late
// materialization, zone-map block skipping, column order taken from
// ByteCard's selectivity estimates for selective conjunctions) against the
// one-pass reader the ForceReader ablation pins, and measures the block
// I/O difference, the mechanism behind the paper's Figure 6a.
//
//	go run ./examples/materialization
package main

import (
	"fmt"
	"log"

	"bytecard"
	"bytecard/internal/rbx"
)

func main() {
	fmt.Println("Training ByteCard over the STATS-like dataset...")
	sys, err := bytecard.Open(bytecard.Options{
		Dataset: "stats",
		Scale:   0.3, // enough rows for multi-block columns
		Seed:    2,
		RBX:     rbx.TrainConfig{Columns: 150, Epochs: 6, MaxPop: 20000, Seed: 11},
	})
	if err != nil {
		log.Fatal(err)
	}

	queries := []struct {
		label string
		sql   string
	}{
		// creation_year is time-clustered in storage (append-only
		// ingestion), so the staged reader can skip whole blocks of the
		// later columns once the year predicate prunes.
		{"selective conjunction", "SELECT COUNT(*) FROM posts WHERE creation_year >= 2014 AND score >= 20 AND view_count >= 1500"},
		{"non-selective filter", "SELECT COUNT(*) FROM posts WHERE score >= -2 AND view_count >= 1"},
	}
	for _, q := range queries {
		res, err := sys.Run(q.sql)
		if err != nil {
			log.Fatal(err)
		}
		count, _ := res.ScalarInt()
		fmt.Printf("\n%s:\n  %s\n  -> %d rows, strategy=%s, %d blocks read\n",
			q.label, q.sql, count, res.Metrics.ReaderStrategy["posts"], res.Metrics.IO.BlocksRead())

		// Pin the one-pass reader to show the I/O delta.
		sys.Engine.ForceReader = "single-stage"
		alt, err := sys.Run(q.sql)
		sys.Engine.ForceReader = ""
		if err != nil {
			log.Fatal(err)
		}
		altCount, _ := alt.ScalarInt()
		if altCount != count {
			log.Fatalf("readers disagree: %d vs %d", count, altCount)
		}
		fmt.Printf("  forced single-stage -> same result, %d blocks read\n", alt.Metrics.IO.BlocksRead())
	}

	fmt.Println("\nColumn-order selection: the optimizer orders predicate columns by")
	fmt.Println("conditional selectivity from the Bayesian network, so correlated")
	fmt.Println("columns are read in the order that prunes earliest.")
}
