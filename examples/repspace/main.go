// Representation space: sweep the two dimensions of the paper's Figure 1 —
// semantic level (vertical) and degree of encoding (horizontal) — for one
// workload and print the static program size, the decoder-table size and the
// simulated interpretation time at every point.
//
//	go run ./examples/repspace
package main

import (
	"context"
	"fmt"
	"log"

	"uhm/internal/core"
)

func main() {
	cfg := core.DefaultConfig()
	rows, err := core.Engine{}.Figure1(context.Background(), []string{"sieve"}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(core.RenderFigure1(rows))

	// Summarise the two trends the figure illustrates.
	byKey := make(map[string]core.Figure1Row)
	for _, r := range rows {
		byKey[r.Level.String()+"/"+r.Degree.String()] = r
	}
	packed := byKey["stack/packed"]
	pair := byKey["stack/pair"]
	fmt.Printf("\nmoving right (more encoding, stack level): size %d -> %d bits, decode steps %.1f -> %.1f per instruction\n",
		packed.StaticBits, pair.StaticBits, packed.MeasuredDecode, pair.MeasuredDecode)
	low := byKey["stack/huffman"]
	high := byKey["mem3/huffman"]
	fmt.Printf("moving up (higher semantic level, huffman encoding): dynamic instructions %d -> %d, total cycles %d -> %d\n",
		low.Instructions, high.Instructions, low.TotalCycles, high.TotalCycles)
}
