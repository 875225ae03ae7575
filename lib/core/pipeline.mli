(** End-to-end Siesta pipeline: trace -> compress -> merge -> synthesize
    -> (generate C | check | diff | replay).

    This is the library's primary entry point.  There is one staged
    path; the content-addressed artifact store is an optional input that
    memoizes each stage.  A typical use:
    {[
      let spec = Pipeline.spec ~workload:"CG" ~nranks:64 () in
      let sy = Pipeline.synthesize_spec spec in
      let c_code = Siesta_synth.Codegen_c.generate sy.Pipeline.sy_proxy in
      let replayed = Pipeline.run_proxy sy ~platform ~impl in
    ]}
    To derive several proxies from one trace, run the stages apart:
    [let ts = Pipeline.trace_stage spec in] then
    [Pipeline.synthesize ~factor ts] per factor. *)

type spec = {
  workload : Siesta_workloads.Registry.t;
  nranks : int;
  iters : int option;  (** [None] = the workload's default iteration count *)
  platform : Siesta_platform.Spec.t;
  impl : Siesta_platform.Mpi_impl.t;
  seed : int;
  cluster_threshold : float;  (** computation-event clustering (Section 2.3) *)
}

val default_spec : spec
(** CG at 64 ranks on platform A under openmpi, seed 42. *)

val spec :
  ?iters:int ->
  ?platform:Siesta_platform.Spec.t ->
  ?impl:Siesta_platform.Mpi_impl.t ->
  ?seed:int ->
  ?cluster_threshold:float ->
  workload:string ->
  nranks:int ->
  unit ->
  spec
(** Convenience constructor; resolves the workload by name.
    @raise Not_found for an unknown workload
    @raise Invalid_argument if [nranks] is invalid for the workload. *)

type traced = {
  run_spec : spec;
  original : Siesta_mpi.Engine.result;  (** uninstrumented run *)
  instrumented : Siesta_mpi.Engine.result;  (** run under the tracer *)
  recorder : Siesta_trace.Recorder.t;
  overhead : float;  (** (instrumented - original) / original elapsed *)
  timings : (string * float) list;
      (** wall seconds per stage ("trace.original", "trace.instrumented"),
          measured on {!Siesta_obs.Clock} — the same clock the spans and
          bench drivers use *)
}
(** A live trace run: the workload run twice — bare and instrumented —
    on the generation platform.  {!trace_stage} hands it out as
    [ts_traced] whenever it ran the tracer. *)

val trace : ?mode:Siesta_trace.Recorder.mode -> spec -> traced
(** The trace stage's live run alone: no packing, no store, no ledger
    record — for callers that want only the recorder or the bare run.
    [mode] is as for {!trace_stage}. *)

type merge_sched = {
  ms_requested : int;  (** domain count asked of the scheduler *)
  ms_effective : int;  (** domains actually running after the clamp *)
  ms_clamped : bool;
      (** implicit sizing was reduced to the host's recommended count *)
  ms_inline_jobs : int;
      (** jobs the cost gate ran serially during this merge *)
  ms_dispatched_jobs : int;  (** jobs fanned out to the pool *)
  ms_est_item_cost_s : float;
      (** the pool's calibrated per-item cost (EWMA); [nan] before the
          first measured job *)
}
(** Snapshot of the {!Siesta_util.Parallel} scheduling decisions taken by
    the merge stage — what [siesta report] prints as the scheduler line. *)

val run_original :
  spec ->
  platform:Siesta_platform.Spec.t ->
  impl:Siesta_platform.Mpi_impl.t ->
  Siesta_mpi.Engine.result
(** Re-run the traced program itself elsewhere (the evaluation's ground
    truth for portability experiments). *)

(** {1 Fidelity observatory}

    Simulated-clock instrumentation of the runs themselves — see
    {!Siesta_analysis.Timeline} / {!Siesta_analysis.Divergence}. *)

val record_timeline : spec -> Siesta_analysis.Timeline.t * Siesta_mpi.Engine.result
(** Run the workload once under a timeline observer (timing identical to
    {!run_original} on the generation platform). *)

val capture_original : spec -> Siesta_analysis.Divergence.capture
(** Full divergence capture (calls + per-event counters + timeline) of
    the original program on the generation platform. *)

val capture_proxy_ir :
  ?platform:Siesta_platform.Spec.t ->
  ?impl:Siesta_platform.Mpi_impl.t ->
  spec ->
  Siesta_synth.Proxy_ir.t ->
  Siesta_analysis.Divergence.capture
(** Divergence capture of a proxy replay; platform and implementation
    default to the spec's generation pair.  A fidelity sweep uses it to
    diff each per-factor proxy against one original capture. *)

val spec_kvs : spec -> (string * string) list
(** The spec as flat strings, as stamped into run-ledger records (so
    [runs compare] can refuse to baseline across different workloads). *)

val ledger_fidelity_of_report :
  ?verdict:Siesta_analysis.Divergence.verdict ->
  Siesta_analysis.Divergence.report ->
  Siesta_ledger.Ledger.fidelity
(** The report's headline scores in ledger form.  [verdict] overrides
    the stamped verdict name — the fidelity sweep passes
    [Divergence.verdict_at] results so shrunken-by-design byte deltas
    don't read as communication divergence. *)

val ledger_check_of_report :
  Siesta_analysis.Comm_check.report -> Siesta_ledger.Ledger.check
(** The static checker's verdict, violation count and reasons in ledger
    form (what [runs compare] gates on via the [check.*] dimensions). *)

(** {1 Stages and the incremental cache}

    The pipeline runs as trace stage -> merge -> proxy search.  Every
    stage can be memoized in the content-addressed artifact store
    ({!Siesta_store.Store}); without a store each stage simply runs.
    With one, each stage's output is bound to a key hashing exactly the
    inputs that influence it (see [Cache]):

    - {e trace}: workload, nranks, iters, seed, platform, impl,
      cluster_threshold;
    - {e merge}: the trace blob's content hash + the [rle] option;
    - {e proxy}: the merged blob's hash, the trace hash (its compute
      table feeds the QP search), the scaling [factor] and the
      platform/impl pair.

    So re-running with only a different [factor] reuses the cached trace
    and merged program and pays only proxy search + codegen; a warm run
    with an unchanged spec skips everything and produces a byte-identical
    C proxy.  Hits/misses/bytes are published as [cache.*] and [store.*]
    metrics and appear in [siesta report]'s Cache section. *)

type cache_outcome = Cache_off | Cache_miss | Cache_hit

val outcome_name : cache_outcome -> string
(** ["off"], ["miss"] or ["hit"]. *)

type cache_status = {
  cs_root : string option;  (** store root, when caching was on *)
  cs_trace : cache_outcome;
  cs_merge : cache_outcome;
  cs_proxy : cache_outcome;
}

type trace_stage = {
  ts_spec : spec;
  ts_trace : Siesta_trace.Trace_io.packed;
      (** the trace itself, in the struct-of-arrays representation
          (materialize boxed streams with
          {!Siesta_trace.Trace_io.of_packed} when needed) *)
  ts_meta : Siesta_store.Codec.trace_meta;
      (** run measurements (elapsed, calls, raw bytes) — cached with the
          trace, so reports need no engine re-run *)
  ts_table : Siesta_trace.Compute_table.t;
      (** restored from the packed centroids on every path, so a
          store-less, a cold and a warm run search the same proxies *)
  ts_hash : string option;
      (** trace blob content hash — [Some] exactly when the stage went
          through a store *)
  ts_outcome : cache_outcome;
  ts_traced : traced option;
      (** the live run (recorder, bare and instrumented results) —
          [Some] whenever this call ran the tracer: always without a
          store, on a miss with one *)
  ts_timings : (string * float) list;
}

val trace_stage :
  ?cache:bool ->
  ?store:Siesta_store.Store.t ->
  ?mode:Siesta_trace.Recorder.mode ->
  spec ->
  trace_stage
(** Trace the workload, or restore its trace from the store.  [cache]
    defaults to false (always run the tracer); with [~cache:true],
    [store] defaults to opening {!Siesta_store.Store.default_root}.
    [mode] is the recorder mode on a live run (default
    {!Siesta_trace.Recorder.Streamed}); it does not enter the cache key,
    because both modes encode the identical event sequence and the
    merge canonicalizes terminal numbering, so the proxy is
    byte-identical either way (the [make check] smoke asserts this at
    10⁶-event scale).  Appends one ["trace"] ledger record. *)

type synthesis = {
  sy_trace : trace_stage;
  sy_merged : Siesta_merge.Merged.t;
  sy_proxy : Siesta_synth.Proxy_ir.t;
  sy_factor : float;
  sy_merge_sched : merge_sched option;
      (** [None] when the merge was served from cache or ran without a
          domain pool (sequential path, e.g. [~domains:1]) *)
  sy_timings : (string * float) list;
      (** the trace stage's rows, then "merge" and "synthesize" (each
          followed by "<stage>.store" on a cache miss); a stage served
          from the store appears as one "<stage>.cached" lookup row *)
  sy_status : cache_status;
}

val synthesize :
  ?factor:float ->
  ?rle:bool ->
  ?domains:int ->
  trace_stage ->
  synthesis
(** Merge the per-rank grammars and search computation proxies.
    [factor] (default 1) produces a shrunk proxy; [rle] (default true)
    controls the Sequitur run-length constraint (ablation); [domains]
    sizes the merge stage's domain pool.  Default ([None]) borrows the
    process-wide warm pool ({!Siesta_util.Parallel.global}), whose
    implicit sizing is clamped to the host's recommended domain count —
    repeated calls pay no [Domain.spawn].  An explicit [~domains:d] with
    [d > 1] creates a raw transient pool of exactly [d] domains (no
    clamp; the determinism cross-checks rely on it); [~domains:1] forces
    the sequential path.

    Both stages simply run, whether or not the trace stage came from the
    store; {!synthesize_spec} memoizes them.  Appends one ["synth"]
    ledger record. *)

val synthesize_spec :
  ?cache:bool ->
  ?store:Siesta_store.Store.t ->
  ?factor:float ->
  ?rle:bool ->
  ?domains:int ->
  ?mode:Siesta_trace.Recorder.mode ->
  spec ->
  synthesis
(** {!trace_stage} then {!synthesize}, with the same [cache]/[store]
    defaults; with a store, the merge and proxy stages are memoized
    too.  Appends a single ["synth"] ledger record.  Decoded
    artifacts are {!Siesta_merge.Merged.equal} to freshly computed ones
    and the C proxy is byte-identical with and without the store
    (golden-hash and qcheck-enforced). *)

val run_proxy :
  synthesis ->
  platform:Siesta_platform.Spec.t ->
  impl:Siesta_platform.Mpi_impl.t ->
  Siesta_mpi.Engine.result
(** Execute the proxy on an arbitrary platform/implementation pair.  The
    returned elapsed time is the raw proxy time; multiply by
    [sy_factor] to estimate the original. *)

type fidelity = {
  f_original : Siesta_analysis.Divergence.capture;
  f_proxy : Siesta_analysis.Divergence.capture;
  f_report : Siesta_analysis.Divergence.report;
  f_check : Siesta_analysis.Comm_check.report;
      (** static communication check of the merged grammar *)
  f_timings : (string * float) list;
      (** wall seconds of the "check", "capture.original",
          "capture.proxy" and "diff" steps, in that order *)
}

val diff_synthesis : synthesis -> fidelity
(** Capture original and proxy on the generation platform, diff them, and
    publish the headline scores as [Siesta_obs.Metrics] gauges (a no-op
    when the registry is disabled).  Also runs the static communication
    check ({!Siesta_analysis.Comm_check}) over the merged grammar and
    stamps its verdict into the ["diff"] ledger record.  Drives
    [siesta diff] and the report's Fidelity/Correctness sections. *)

val check_synthesis :
  ?fault:Siesta_analysis.Comm_check.fault -> synthesis -> Siesta_analysis.Comm_check.report
(** Run the static communication-correctness check over the synthesis'
    merged grammar — no replay, purely symbolic expansion.  [fault]
    perturbs the merged program first
    ({!Siesta_analysis.Comm_check.perturb}), which is how the CLI's
    [--perturb] flag and the tests prove the checker actually fires.
    Publishes [check.*] metrics and appends a ["check"] ledger record
    carrying the verdict, so [runs compare] gates on it.  Drives
    [siesta check]. *)
