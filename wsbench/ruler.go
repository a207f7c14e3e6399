package main

import (
	"encoding/xml"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strconv"
	"sync"
	"time"
)

// The machine the benchmark runs on is shared, and its speed drifts by
// 10–30% over seconds to minutes as other guests come and go: the same
// iteration takes that much longer in CPU time as well as in wall time.
// The ruler measures that drift. It is a fixed piece of work of the
// benchmark's own, independent of the program under test — decoding and
// re-encoding a SOAP-like document with encoding/xml, the kind of work
// the program does most — run once per worker, all at once, right
// before every iteration and once after the last. The timing metrics of
// an iteration are scaled by rulerRef over the mean of the two ruler
// readings around it: they read as seconds on the machine at the speed
// at which the ruler takes rulerRef.
const (
	// rulerRef is close to the ruler's median reading on a 2-vCPU Intel
	// Xeon virtual machine, 21–23 ms.
	rulerRef = 0.020
	// rulerItems is the size of the ruler's document and rulerRounds how
	// often one reading decodes and re-encodes it.
	rulerItems  = 300
	rulerRounds = 8
)

// ruler holds one document per lane, built once from a fixed seed.
type ruler struct {
	docs [][]byte
}

type rulerEnvelope struct {
	XMLName xml.Name    `xml:"urn:wsbench:ruler Envelope"`
	Items   []rulerItem `xml:"Body>Item"`
}

type rulerItem struct {
	Name  string `xml:"name,attr"`
	Type  string `xml:"Type"`
	Value int    `xml:"Value"`
}

func newRuler(lanes int) (*ruler, error) {
	r := &ruler{}
	for i := 0; i < lanes; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		var env rulerEnvelope
		for j := 0; j < rulerItems; j++ {
			env.Items = append(env.Items, rulerItem{
				Name: "urn:ruler:" + strconv.Itoa(rng.Int()), Type: "xs:string", Value: rng.Int()})
		}
		doc, err := xml.Marshal(env)
		if err != nil {
			return nil, err
		}
		r.docs = append(r.docs, doc)
	}
	return r, nil
}

// read runs every lane once, in parallel, and returns their wall time.
// The collector is off meanwhile, so that the reading does not depend on
// how much heap the program under test keeps live.
func (r *ruler) read() (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var wg sync.WaitGroup
	errs := make([]error, len(r.docs))
	start := time.Now()
	for i, doc := range r.docs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = rulerLane(doc)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// rulerLane decodes and re-encodes one document rulerRounds times and
// checks that it comes back whole.
func rulerLane(doc []byte) error {
	for round := 0; round < rulerRounds; round++ {
		var env rulerEnvelope
		if err := xml.Unmarshal(doc, &env); err != nil {
			return fmt.Errorf("ruler: %w", err)
		}
		out, err := xml.Marshal(env)
		if err != nil {
			return fmt.Errorf("ruler: %w", err)
		}
		if len(out) != len(doc) || len(env.Items) != rulerItems {
			return fmt.Errorf("ruler: document came back with %d items, %d bytes", len(env.Items), len(out))
		}
	}
	return nil
}
