package stream

import (
	"strconv"

	"repro/internal/telemetry"
)

// engineMetrics holds the stream processor's registry handles. Engine-wide
// totals live here; per-instance series hang off each Instance so the
// ingest path reaches them without a map lookup (the instance was already
// resolved to dispatch the tuple).
type engineMetrics struct {
	tuplesIn     *telemetry.Counter
	resultTuples *telemetry.Counter
	evalNS       *telemetry.Histogram
	batchFlushes *telemetry.Counter
	batchRows    *telemetry.Counter
}

// queryMetrics is the per-(query, level) instance slice of the registry.
type queryMetrics struct {
	tuplesIn *telemetry.Counter
	results  *telemetry.Counter
	evalNS   *telemetry.Histogram
}

// Instrument registers the engine's metrics against reg (nil disables) and
// retro-instruments every already-installed instance. Instances installed
// later pick the registry up automatically.
func (e *Engine) Instrument(reg *telemetry.Registry) {
	e.reg = reg
	e.m = engineMetrics{
		tuplesIn: reg.Counter("sonata_stream_tuples_in_total",
			"Tuples (or mirrored packets) ingested by the stream processor."),
		resultTuples: reg.Counter("sonata_stream_result_tuples_total",
			"Result tuples produced across all query instances."),
		evalNS: reg.Histogram("sonata_stream_eval_ns",
			"Per-instance window-close evaluation time in nanoseconds.",
			telemetry.DurationBuckets),
		batchFlushes: reg.Counter("sonata_stream_batch_flushes_total",
			"Column-batch flushes run by the batched executor."),
		batchRows: reg.Counter("sonata_stream_batch_rows_total",
			"Tuples processed through column-batch flushes (rows per flush = ratio to flushes)."),
	}
	for _, key := range e.order {
		e.instrumentQuery(e.queries[key])
	}
}

// instrumentQuery registers one instance's labeled series.
func (e *Engine) instrumentQuery(rq *Instance) {
	if e.reg == nil {
		return
	}
	labels := []string{
		"qid", strconv.Itoa(int(rq.key.QID)),
		"level", strconv.Itoa(int(rq.key.Level)),
	}
	rq.m = queryMetrics{
		tuplesIn: e.reg.Counter("sonata_stream_query_tuples_in_total",
			"Tuples ingested by one (query, level) instance.", labels...),
		results: e.reg.Counter("sonata_stream_query_result_tuples_total",
			"Result tuples produced by one (query, level) instance.", labels...),
		evalNS: e.reg.Histogram("sonata_stream_query_eval_ns",
			"Window-close evaluation time of one (query, level) instance.",
			telemetry.DurationBuckets, labels...),
	}
}
