// Package serve is the model-serving subsystem behind cmd/perfpredd: a
// stdlib-only HTTP daemon that turns trained surrogate predictors into a
// long-lived query service — the deployment shape the paper's Figure 1
// implies once a design team stops retraining per question and starts
// asking the surrogate for every point in a design space.
//
// The package is three cooperating pieces:
//
//   - [Registry]: loads a directory of predictors serialized by
//     core.Predictor.Save into named, versioned models and swaps the
//     whole catalog atomically on reload (SIGHUP or POST /admin/reload),
//     so lookups never observe a half-loaded state and a failed reload
//     keeps the previous catalog serving. [Registry.Resolve] is its one
//     lookup: a model together with the generation of its catalog.
//   - [Batcher]: a micro-batcher that funnels every scored row through a
//     bounded admission queue. A free worker goroutine takes the next
//     request plus whatever is already queued behind it (never waiting
//     for more) and makes one flat core.Predictor.PredictEncodedInto
//     kernel call per model on engine worker-local scratch (the
//     zero-allocation batch path). Admission sheds load with
//     [ErrOverloaded] when the queue is full, and Close drains the queue
//     completely.
//   - [Server]: the HTTP surface — POST /v1/predict (single row or
//     batch), GET /v1/models, GET /v1/report, POST /admin/reload,
//     GET /healthz — plus the obs endpoints: /metrics serves, in
//     Prometheus text, the serve.* metrics this package registers and
//     the cache.* counters internal/predcache registers; /debug/vars is
//     the standard expvar handler and /debug/pprof the profiler.
//     [Server.Report] reads the same handles into a [Report], so
//     /v1/report and /metrics agree.
//
// A /v1/predict request takes one path, with no per-cell allocation
// unless a string cell needs unescaping:
// read the body into pooled scratch, scan it ([ScanPredict], pass 1:
// validate the JSON with json.Valid and find the model and the row
// spans), resolve the model, walk the cells into the scratch's flat
// values against the model's schema (pass 2), encode each row exactly
// once, probe the prediction cache (internal/predcache) with the encoded
// rows, and send only the rows it cannot answer through the batcher to
// the kernel. A
// scan, resolve or encode failure is a 400 that never takes a queue
// slot; the gateway runs the same pass 1 to route, and answers a body
// that fails it with the same 400.
//
// Neither batching nor caching changes answers: the batched kernel is
// bit-identical to per-row Predict, and a cache hit returns the bits the
// kernel produced for an equal encoded row under the same artifact
// generation, so a client sees exactly the predictions a sequential
// offline scorer would produce.
package serve
