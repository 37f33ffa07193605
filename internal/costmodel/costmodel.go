// Package costmodel implements the paper's stated next step: a
// query-driven learned cost model deployed through the same framework as
// the CardEst models. Runtime traces (plan features paired with measured
// execution times) train a small regression network; inference predicts a
// plan's execution cost, enabling admission control and workload-management
// decisions. Unlike the CardEst models it is query-driven by design — the
// paper notes cost models need runtime traces, which the warehouse already
// logs.
package costmodel

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"time"

	"bytecard/internal/engine"
	"bytecard/internal/nn"
	"bytecard/internal/sqlparse"
)

// FeatureDim is the plan-feature width.
const FeatureDim = 8

// Featurize encodes the optimizer's view of a plan: the signals available
// before execution.
func Featurize(p *engine.Plan) []float64 {
	// ordered counts the scans whose column order the estimator chose —
	// the selective conjunctions.
	var scanRows, ordered float64
	for _, sp := range p.Scans {
		scanRows += sp.EstRows
		if len(sp.ColOrder) > 0 {
			ordered++
		}
	}
	var baseRows float64
	for _, t := range p.Query.Tables {
		baseRows += float64(t.Table.NumRows())
	}
	return []float64{
		float64(len(p.Query.Tables)),
		float64(len(p.Query.Joins)),
		math.Log1p(scanRows),
		math.Log1p(baseRows),
		math.Log1p(p.EstFinalRows),
		math.Log1p(float64(p.AggCapacity)),
		ordered,
		float64(len(p.Query.GroupBy)),
	}
}

// Trace is one runtime observation.
type Trace struct {
	Features []float64
	// Millis is the measured plan+execution latency.
	Millis float64
}

// CollectTraces runs queries through the engine, recording plan features
// and measured latency — the runtime-trace logging the warehouse performs.
func CollectTraces(exec *engine.Engine, sqls []string) ([]Trace, error) {
	var traces []Trace
	for _, sql := range sqls {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		q, err := exec.Analyze(stmt)
		if err != nil {
			return nil, err
		}
		planStart := time.Now()
		p, err := exec.Plan(q)
		if err != nil {
			return nil, err
		}
		feat := Featurize(p)
		res, err := exec.Execute(p)
		if err != nil {
			return nil, err
		}
		total := time.Since(planStart)
		_ = res
		traces = append(traces, Trace{Features: feat, Millis: float64(total.Microseconds()) / 1000})
	}
	return traces, nil
}

// Model is a trained cost regressor (predicts log-milliseconds).
type Model struct {
	Net          *nn.Network
	TrainSeconds float64
}

// TrainConfig controls training.
type TrainConfig struct {
	Epochs int
	LR     float64
	Seed   int64
}

// Train fits the cost model on runtime traces.
func Train(traces []Trace, cfg TrainConfig) (*Model, error) {
	if len(traces) < 8 {
		return nil, errors.New("costmodel: need at least 8 traces")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 120
	}
	if cfg.LR <= 0 {
		cfg.LR = 3e-3
	}
	start := time.Now()
	var xs [][]float64
	var ys []float64
	for _, t := range traces {
		if len(t.Features) != FeatureDim {
			return nil, fmt.Errorf("costmodel: trace has %d features, want %d", len(t.Features), FeatureDim)
		}
		xs = append(xs, t.Features)
		ys = append(ys, math.Log1p(t.Millis))
	}
	net := nn.NewNetwork(cfg.Seed+1, FeatureDim, 32, 16, 1)
	if _, err := net.Train(xs, ys, nn.TrainConfig{
		Epochs: cfg.Epochs, BatchSize: 16, LR: cfg.LR, Seed: cfg.Seed + 2,
	}); err != nil {
		return nil, err
	}
	return &Model{Net: net, TrainSeconds: time.Since(start).Seconds()}, nil
}

// PredictMillis estimates a plan's latency from its features (floored at
// zero: the network regresses log-latency and may dip below log(1) for
// sub-millisecond plans).
func (m *Model) PredictMillis(features []float64) float64 {
	ms := math.Expm1(m.Net.Forward(features)[0])
	if ms < 0 {
		return 0
	}
	return ms
}

// PredictPlan estimates a plan's latency directly.
func (m *Model) PredictPlan(p *engine.Plan) float64 {
	return m.PredictMillis(Featurize(p))
}

// Validate checks network health (the Model Validator hook; cost models
// ride the same load/validate/initContext protocol as CardEst models).
func (m *Model) Validate() error {
	if m.Net == nil {
		return errors.New("costmodel: missing network")
	}
	if m.Net.InputDim() != FeatureDim {
		return fmt.Errorf("costmodel: input dim %d, want %d", m.Net.InputDim(), FeatureDim)
	}
	return m.Net.Validate()
}

// SizeBytes reports the parameter footprint.
func (m *Model) SizeBytes() int64 { return m.Net.SizeBytes() }

// Encode serializes the model with gob.
func (m *Model) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode deserializes and validates a model.
func Decode(data []byte) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
