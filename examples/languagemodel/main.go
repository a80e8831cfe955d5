// Stateful language modeling (the paper's PTB workload shape): trains a
// next-token model over a corpus far longer than the unroll window by
// carrying the recurrent state across chunks — truncated BPTT with
// Network.ForwardCheckpointed (nil boundaries: full storage). This is the manual training loop; compare
// examples/quickstart for the managed Trainer.
package main

import (
	"fmt"
	"log"
	"math"

	"etalstm"
)

// Corpus geometry.
const (
	vocab    = 32
	embed    = 16
	hidden   = 48
	layers   = 2
	chunkLen = 12 // unroll window (the model.Config SeqLen)
	batch    = 4
	chunks   = 40 // corpus length = chunks × chunkLen tokens per stream
	epochs   = 3
)

func main() {
	cfg := etalstm.Config{
		InputSize: embed, Hidden: hidden, Layers: layers, SeqLen: chunkLen,
		Batch: batch, OutSize: vocab, Loss: etalstm.PerTimestampLoss,
	}
	net, err := etalstm.NewNetwork(cfg, 42)
	if err != nil {
		log.Fatal(err)
	}
	opt := &etalstm.Adam{LR: 0.01}

	tokens, table := makeCorpus()
	for epoch := 0; epoch < epochs; epoch++ {
		state := net.ZeroState() // reset at document start
		var total float64
		for c := 0; c < chunks; c++ {
			xs, targets := chunkBatch(tokens, table, c)
			res, next, err := net.ForwardCheckpointed(xs, targets, nil, state, nil)
			if err != nil {
				log.Fatal(err)
			}
			grads := net.NewGradients()
			if err := net.Backward(res, nil, grads, etalstm.BackwardOpts{}); err != nil {
				log.Fatal(err)
			}
			opt.Step(net, grads)
			state = next // carry h/s into the next chunk
			total += res.Loss
		}
		ppl := perplexity(total / chunks)
		fmt.Printf("epoch %d: loss %.4f  perplexity %.1f\n", epoch, total/chunks, ppl)
	}
	fmt.Println("\nCarrying state across chunks is how PTB-style training keeps context")
	fmt.Println("beyond the 35-step unroll window the paper's Table I lists.")
}

// makeCorpus builds batch parallel token streams from a sparse Markov
// chain plus a fixed random embedding table, deterministically.
func makeCorpus() ([][]int, [][]float32) {
	rnd := lcg(12345)
	succ := make([][3]int, vocab)
	for v := range succ {
		for k := 0; k < 3; k++ {
			succ[v][k] = int(rnd() % vocab)
		}
	}
	tokens := make([][]int, batch)
	for b := range tokens {
		cur := int(rnd() % vocab)
		stream := make([]int, chunks*chunkLen+1)
		for i := range stream {
			stream[i] = cur
			cur = succ[cur][rnd()%3]
		}
		tokens[b] = stream
	}
	table := make([][]float32, vocab)
	for v := range table {
		row := make([]float32, embed)
		for j := range row {
			row[j] = float32(int(rnd()%2000)-1000) / 1000
		}
		table[v] = row
	}
	return tokens, table
}

// chunkBatch slices chunk c of every stream into model inputs/targets.
func chunkBatch(tokens [][]int, table [][]float32, c int) ([]*etalstm.Matrix, *etalstm.Targets) {
	xs := make([]*etalstm.Matrix, chunkLen)
	tg := &etalstm.Targets{Classes: make([][]int, chunkLen)}
	for t := 0; t < chunkLen; t++ {
		m := etalstm.NewMatrix(batch, embed)
		cls := make([]int, batch)
		for b := 0; b < batch; b++ {
			tok := tokens[b][c*chunkLen+t]
			copy(m.Row(b), table[tok])
			cls[b] = tokens[b][c*chunkLen+t+1] // next token
		}
		xs[t] = m
		tg.Classes[t] = cls
	}
	return xs, tg
}

func perplexity(meanCE float64) float64 { return math.Exp(meanCE) }

// lcg is a tiny deterministic generator for the example's corpus.
func lcg(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33
	}
}
