module Engine = Siesta_mpi.Engine
module Recorder = Siesta_trace.Recorder
module Registry = Siesta_workloads.Registry
module Merged = Siesta_merge.Merged
module Merge_pipeline = Siesta_merge.Pipeline
module Proxy_ir = Siesta_synth.Proxy_ir
module Spec_p = Siesta_platform.Spec
module Mpi_impl = Siesta_platform.Mpi_impl
module Span = Siesta_obs.Span
module Metrics = Siesta_obs.Metrics
module Log = Siesta_obs.Log
module Clock = Siesta_obs.Clock
module Timeline = Siesta_analysis.Timeline
module Divergence = Siesta_analysis.Divergence
module Comm_check = Siesta_analysis.Comm_check
module Parallel = Siesta_util.Parallel
module Store = Siesta_store.Store
module Codec = Siesta_store.Codec
module Trace_io = Siesta_trace.Trace_io
module Compute_table = Siesta_trace.Compute_table
module Ledger = Siesta_ledger.Ledger

type spec = {
  workload : Registry.t;
  nranks : int;
  iters : int option;
  platform : Spec_p.t;
  impl : Mpi_impl.t;
  seed : int;
  cluster_threshold : float;
}

let default_spec =
  {
    workload = Registry.find "CG";
    nranks = 64;
    iters = None;
    platform = Spec_p.platform_a;
    impl = Mpi_impl.openmpi;
    seed = 42;
    cluster_threshold = 0.05;
  }

let spec ?iters ?(platform = Spec_p.platform_a) ?(impl = Mpi_impl.openmpi) ?(seed = 42)
    ?(cluster_threshold = 0.05) ~workload ~nranks () =
  let w = Registry.find workload in
  if not (w.Registry.valid_procs nranks) then
    invalid_arg (Printf.sprintf "%s cannot run on %d processes" w.Registry.name nranks);
  { workload = w; nranks; iters; platform; impl; seed; cluster_threshold }

type traced = {
  run_spec : spec;
  original : Engine.result;
  instrumented : Engine.result;
  recorder : Recorder.t;
  overhead : float;
  timings : (string * float) list;
}

let program_of s = s.workload.Registry.program ~nranks:s.nranks ~iters:s.iters

(* The spec as flat strings, stamped into run-ledger records so
   [runs compare] can refuse to baseline across different workloads. *)
let spec_kvs s =
  [
    ("workload", s.workload.Registry.name);
    ("nranks", string_of_int s.nranks);
    ("iters", (match s.iters with None -> "auto" | Some i -> string_of_int i));
    ("seed", string_of_int s.seed);
    ("platform", s.platform.Spec_p.name);
    ("impl", s.impl.Mpi_impl.name);
    ("cluster_threshold", Printf.sprintf "%g" s.cluster_threshold);
  ]

(* Time a stage under a pipeline-category span; wall seconds are kept in
   the result records so `siesta report` can print a stage table without
   a trace sink being configured. *)
let stage name f =
  let (r, s) = Clock.wall (fun () -> Span.with_ ~cat:"pipeline" name f) in
  if Metrics.enabled () then
    Metrics.observe (Metrics.histogram (Printf.sprintf "pipeline.%s_s" name)) s;
  (r, (name, s))

let trace ?(mode = Recorder.Streamed) s =
  let program = program_of s in
  let original, t_orig =
    stage "trace.original" (fun () ->
        Engine.run ~platform:s.platform ~impl:s.impl ~nranks:s.nranks ~seed:s.seed program)
  in
  let recorder =
    Recorder.create ~nranks:s.nranks ~cluster_threshold:s.cluster_threshold ~mode ()
  in
  let instrumented, t_instr =
    stage "trace.instrumented" (fun () ->
        Engine.run ~platform:s.platform ~impl:s.impl ~nranks:s.nranks ~seed:s.seed
          ~hook:(Recorder.hook recorder) program)
  in
  let overhead =
    if original.Engine.elapsed = 0.0 then 0.0
    else (instrumented.Engine.elapsed -. original.Engine.elapsed) /. original.Engine.elapsed
  in
  if Metrics.enabled () then begin
    Metrics.incr (Metrics.counter "pipeline.traces") 1;
    Metrics.incr (Metrics.counter "pipeline.trace.events") (Recorder.total_events recorder);
    Metrics.incr (Metrics.counter "pipeline.trace.calls") instrumented.Engine.total_calls
  end;
  Log.info (fun () ->
      ( "pipeline.trace",
        [
          ("workload", s.workload.Registry.name);
          ("nranks", string_of_int s.nranks);
          ("events", string_of_int (Recorder.total_events recorder));
          ("calls", string_of_int instrumented.Engine.total_calls);
          ("overhead_pct", Printf.sprintf "%.2f" (100.0 *. overhead));
        ] ));
  { run_spec = s; original; instrumented; recorder; overhead; timings = [ t_orig; t_instr ] }

type merge_sched = {
  ms_requested : int;
  ms_effective : int;
  ms_clamped : bool;
  ms_inline_jobs : int;
  ms_dispatched_jobs : int;
  ms_est_item_cost_s : float;
}

(* Resolve the merge stage's pool so its scheduling decisions (clamp,
   gate, estimator) can be snapshotted and surfaced in the report.
   [None] borrows the shared warm pool — repeated synthesize calls stop
   paying Domain.spawn per merge; an explicit [Some d > 1] gets a raw
   transient pool (the determinism cross-checks need the exact domain
   count). *)
let with_merge_pool domains f =
  match domains with
  | Some d when d > 1 -> Parallel.with_pool ~domains:d (fun p -> f (Some p))
  | Some _ -> f None
  | None ->
      let p = Parallel.global () in
      f (if Parallel.size p > 1 then Some p else None)

let merge_config ~rle pool =
  {
    Merge_pipeline.default_config with
    rle;
    pool;
    domains = (match pool with None -> Some 1 | Some _ -> None);
  }

let sched_snapshot pool before =
  match (pool, before) with
  | Some p, Some b ->
      let a = Parallel.stats p in
      Some
        {
          ms_requested = a.Parallel.requested;
          ms_effective = a.Parallel.domains;
          ms_clamped = a.Parallel.clamped;
          ms_inline_jobs = a.Parallel.inline_jobs - b.Parallel.inline_jobs;
          ms_dispatched_jobs = a.Parallel.dispatched_jobs - b.Parallel.dispatched_jobs;
          ms_est_item_cost_s = a.Parallel.est_item_cost_s;
        }
  | _ -> None

let sched_kvs = function
  | None -> []
  | Some m ->
      [
        ("requested", float_of_int m.ms_requested);
        ("effective", float_of_int m.ms_effective);
        ("clamped", if m.ms_clamped then 1.0 else 0.0);
        ("inline_jobs", float_of_int m.ms_inline_jobs);
        ("dispatched_jobs", float_of_int m.ms_dispatched_jobs);
        ("est_item_cost_s", m.ms_est_item_cost_s);
      ]

let run_original s ~platform ~impl =
  Engine.run ~platform ~impl ~nranks:s.nranks ~seed:s.seed (program_of s)

(* ------------------------------------------------------------------ *)
(* Fidelity observatory (simulated clock) *)

let record_timeline s =
  Span.with_ ~cat:"pipeline" "timeline" (fun () ->
      Timeline.record ~platform:s.platform ~impl:s.impl ~nranks:s.nranks ~seed:s.seed
        (program_of s))

let capture_original s =
  Span.with_ ~cat:"pipeline" "capture.original" (fun () ->
      Divergence.capture ~platform:s.platform ~impl:s.impl ~nranks:s.nranks ~seed:s.seed
        (program_of s))

let capture_proxy_ir ?platform ?impl s proxy =
  let platform = Option.value ~default:s.platform platform in
  let impl = Option.value ~default:s.impl impl in
  Span.with_ ~cat:"pipeline" "capture.proxy" (fun () ->
      Divergence.capture ~platform ~impl ~nranks:s.nranks ~seed:s.seed
        (Proxy_ir.program proxy))

(* ------------------------------------------------------------------ *)
(* Static communication check *)

let ledger_check_of_report (r : Comm_check.report) =
  {
    Ledger.lc_verdict = Comm_check.verdict_name (Comm_check.verdict r);
    lc_violations = List.length r.Comm_check.k_reasons;
    lc_reasons = r.Comm_check.k_reasons;
  }

let run_check s merged =
  let report =
    Span.with_ ~cat:"pipeline" "check" (fun () -> Comm_check.check ~impl:s.impl merged)
  in
  Comm_check.publish_metrics report;
  Log.info (fun () ->
      ( "pipeline.check",
        [
          ("workload", s.workload.Registry.name);
          ("nranks", string_of_int s.nranks);
          ("verdict", Comm_check.verdict_name (Comm_check.verdict report));
          ("violations", string_of_int (List.length report.Comm_check.k_reasons));
        ] ));
  report

type fidelity = {
  f_original : Divergence.capture;
  f_proxy : Divergence.capture;
  f_report : Divergence.report;
  f_check : Comm_check.report;
  f_timings : (string * float) list;
}

let ledger_fidelity_of_report ?verdict (r : Divergence.report) =
  let v = match verdict with Some v -> v | None -> Divergence.verdict r in
  {
    Ledger.lf_verdict = Divergence.verdict_name v;
    lf_lossless = r.Divergence.r_lossless;
    lf_time_error = r.Divergence.r_time_error;
    lf_timeline_distance = r.Divergence.r_timeline_distance;
    lf_comm_matrix_dist = r.Divergence.r_comm_matrix_dist;
    lf_max_compute_mean =
      List.fold_left
        (fun acc (e : Divergence.metric_err) -> Float.max acc e.Divergence.me_mean)
        0.0 r.Divergence.r_compute_errors;
  }

(* ------------------------------------------------------------------ *)
(* Staged pipeline; the content-addressed artifact store is optional *)

type cache_outcome = Cache_off | Cache_miss | Cache_hit

let outcome_name = function
  | Cache_off -> "off"
  | Cache_miss -> "miss"
  | Cache_hit -> "hit"

type cache_status = {
  cs_root : string option;
  cs_trace : cache_outcome;
  cs_merge : cache_outcome;
  cs_proxy : cache_outcome;
}

type trace_stage = {
  ts_spec : spec;
  ts_trace : Trace_io.packed;
  ts_meta : Codec.trace_meta;
  ts_table : Compute_table.t;
  ts_hash : string option;
  ts_outcome : cache_outcome;
  ts_traced : traced option;
  ts_timings : (string * float) list;
}

type synthesis = {
  sy_trace : trace_stage;
  sy_merged : Merged.t;
  sy_proxy : Proxy_ir.t;
  sy_factor : float;
  sy_merge_sched : merge_sched option;
  sy_timings : (string * float) list;
  sy_status : cache_status;
}

let run_proxy sy ~platform ~impl =
  let s = sy.sy_trace.ts_spec in
  Engine.run ~platform ~impl ~nranks:s.nranks ~seed:s.seed (Proxy_ir.program sy.sy_proxy)

let meta_of_traced (tr : traced) =
  {
    Codec.tm_original_elapsed = tr.original.Engine.elapsed;
    tm_instrumented_elapsed = tr.instrumented.Engine.elapsed;
    tm_original_calls = tr.original.Engine.total_calls;
    tm_instrumented_calls = tr.instrumented.Engine.total_calls;
    tm_total_events = Recorder.total_events tr.recorder;
    tm_raw_bytes = Recorder.raw_trace_bytes tr.recorder;
  }

let cache_count stage hit =
  if Metrics.enabled () then begin
    Metrics.incr (Metrics.counter (if hit then "cache.hits" else "cache.misses")) 1;
    Metrics.incr
      (Metrics.counter
         (Printf.sprintf "cache.%s.%s" stage (if hit then "hits" else "misses")))
      1
  end

(* Resolve key -> fetch blob -> decode.  Every failure mode (unbound
   key, missing or corrupt object, schema mismatch) degrades to a miss:
   the stage recomputes and re-puts, and [store verify] reports the
   damage. *)
let cache_lookup st ~stage ~key ~decode =
  match Store.resolve st ~key with
  | None -> None
  | Some hash -> (
      match Store.get st hash with
      | None -> None
      | Some blob -> (
          match decode blob with
          | v -> Some (hash, v)
          | exception Codec.Corrupt m ->
              Log.warn (fun () ->
                  ("pipeline.cache", [ ("stage", stage); ("hash", hash); ("error", m) ]));
              None))

let log_stage_outcome stg s outcome =
  Log.info (fun () ->
      ( "pipeline.cache",
        [
          ("stage", stg);
          ("workload", s.workload.Registry.name);
          ("nranks", string_of_int s.nranks);
          ("outcome", outcome_name outcome);
        ] ))

type ('a, 'x) memoized = {
  m_value : 'a;
  m_hash : string option; (* blob content hash, when memoized *)
  m_outcome : cache_outcome;
  m_timings : (string * float) list;
  m_extra : 'x option; (* [compute]'s by-product, when it ran *)
}

(* One pipeline stage, memoized when [cache] carries a store and the
   stage's (key, descriptor).  Without one, [compute] just runs
   ([Cache_off]).  With one, the key is looked up first (timed as
   "<row>.cached"; that row is kept only on a hit); on a miss [compute]
   runs and its value is encoded, put and bound under the key (timed as
   "<row>.store").  [compute] returns the value, a by-product the store
   cannot hold, and its own timing rows.  [stg] names the stage in the
   cache.* counters and log lines, [kind] in the store manifest. *)
let memo cache ~stg ~row ~kind ~decode ~encode s compute =
  let computed outcome =
    let value, extra, timings = compute () in
    {
      m_value = value;
      m_hash = None;
      m_outcome = outcome;
      m_timings = timings;
      m_extra = Some extra;
    }
  in
  match cache with
  | None -> computed Cache_off
  | Some (st, (key, descr)) -> (
      let found, t_lookup =
        stage (row ^ ".cached") (fun () -> cache_lookup st ~stage:stg ~key ~decode)
      in
      match found with
      | Some (hash, value) ->
          cache_count stg true;
          log_stage_outcome stg s Cache_hit;
          {
            m_value = value;
            m_hash = Some hash;
            m_outcome = Cache_hit;
            m_timings = [ t_lookup ];
            m_extra = None;
          }
      | None ->
          cache_count stg false;
          log_stage_outcome stg s Cache_miss;
          let m = computed Cache_miss in
          let hash, t_store =
            stage (row ^ ".store") (fun () ->
                let hash = Store.put st (encode m.m_value) in
                Store.bind st ~key ~hash ~kind ~descr;
                hash)
          in
          { m with m_hash = Some hash; m_timings = m.m_timings @ [ t_store ] })

let trace_stage_in store ?mode s =
  let cache =
    Option.map
      (fun st ->
        ( st,
          Cache.trace_key ~workload:s.workload.Registry.name ~nranks:s.nranks ~iters:s.iters
            ~seed:s.seed ~platform:s.platform.Spec_p.name ~impl:s.impl.Mpi_impl.name
            ~cluster_threshold:s.cluster_threshold () ))
      store
  in
  let m =
    memo cache ~stg:"trace" ~row:"trace" ~kind:"trace" ~decode:Codec.decode_trace
      ~encode:(fun (meta, t) -> Codec.encode_trace ~meta t)
      s
      (fun () ->
        let traced = trace ?mode s in
        ((meta_of_traced traced, Trace_io.pack traced.recorder), traced, traced.timings))
  in
  let meta, t = m.m_value in
  {
    ts_spec = s;
    ts_trace = t;
    ts_meta = meta;
    (* Always restored from the packed centroids — the only table a warm
       run can have — so every run searches the exact same proxies. *)
    ts_table = Trace_io.packed_compute_table t;
    ts_hash = m.m_hash;
    ts_outcome = m.m_outcome;
    ts_traced = m.m_extra;
    ts_timings = m.m_timings;
  }

(* One ledger record per public trace invocation.  [synthesize_spec]
   calls [trace_stage_in] directly, so a synth run appends a single
   "synth" record rather than a "trace" + "synth" pair. *)
let emit_trace_record ts =
  Ledger.emit (fun () ->
      Ledger.make ~kind:"trace" ~spec:(spec_kvs ts.ts_spec)
        ~cache:
          (("trace", outcome_name ts.ts_outcome)
          :: (match ts.ts_hash with Some h -> [ ("trace_hash", h) ] | None -> []))
        ~timings:ts.ts_timings ())

let open_store ~cache store =
  if cache then Some (match store with Some st -> st | None -> Store.open_ ()) else None

let trace_stage ?(cache = false) ?store ?mode s =
  let ts = trace_stage_in (open_store ~cache store) ?mode s in
  emit_trace_record ts;
  ts

let emit_synth_record sy =
  Ledger.emit (fun () ->
      let st = sy.sy_status in
      let cache =
        (match st.cs_root with Some root -> [ ("root", root) ] | None -> [])
        @ [
            ("trace", outcome_name st.cs_trace);
            ("merge", outcome_name st.cs_merge);
            ("proxy", outcome_name st.cs_proxy);
          ]
        @ (match sy.sy_trace.ts_hash with Some h -> [ ("trace_hash", h) ] | None -> [])
      in
      Ledger.make ~kind:"synth"
        ~spec:(("factor", Printf.sprintf "%g" sy.sy_factor) :: spec_kvs sy.sy_trace.ts_spec)
        ~cache ~timings:sy.sy_timings
        ~sched:(sched_kvs sy.sy_merge_sched) ())

(* The merge and proxy stages over [ts], memoized in [store] when given
   — always the store [ts] itself went through, so [ts_hash] is set. *)
let synthesize_in store ?(factor = 1.0) ?(rle = true) ?domains ts =
  let s = ts.ts_spec in
  let keyed key = Option.map (fun st -> (st, key (Option.get ts.ts_hash))) store in
  let merge =
    memo
      (keyed (fun trace_hash -> Cache.merge_key ~trace_hash ~rle ()))
      ~stg:"merge" ~row:"merge" ~kind:"merged" ~decode:Codec.decode_merged
      ~encode:Codec.encode_merged s
      (fun () ->
        with_merge_pool domains @@ fun pool ->
        let config = merge_config ~rle pool in
        let before = Option.map Parallel.stats pool in
        let merged, t_merge =
          stage "merge" (fun () -> Merge_pipeline.merge_packed ~config ts.ts_trace)
        in
        (merged, sched_snapshot pool before, [ t_merge ]))
  in
  let merged = merge.m_value in
  let proxy =
    memo
      (keyed (fun trace_hash ->
           Cache.proxy_key ~merge_hash:(Option.get merge.m_hash) ~trace_hash ~factor
             ~platform:s.platform.Spec_p.name ~impl:s.impl.Mpi_impl.name ()))
      ~stg:"proxy" ~row:"synthesize" ~kind:"proxy" ~decode:Codec.decode_proxy
      ~encode:Codec.encode_proxy s
      (fun () ->
        let proxy, t_synth =
          stage "synthesize" (fun () ->
              Proxy_ir.synthesize ~platform:s.platform ~impl:s.impl ~factor ~merged
                ~compute_table:ts.ts_table ())
        in
        (proxy, (), [ t_synth ]))
  in
  let merge_sched = Option.join merge.m_extra in
  let timings = ts.ts_timings @ merge.m_timings @ proxy.m_timings in
  Option.iter
    (fun st ->
      if Metrics.enabled () then
        Metrics.set (Metrics.gauge "store.size_bytes") (float_of_int (Store.size_bytes st)))
    store;
  Log.info (fun () ->
      let row name =
        match List.assoc_opt name timings with
        | Some t -> [ (name ^ "_s", Printf.sprintf "%.6f" t) ]
        | None -> []
      in
      ( "pipeline.synthesize",
        [
          ("workload", s.workload.Registry.name);
          ("factor", Printf.sprintf "%g" factor);
          ("merged", Merged.stats merged);
        ]
        @ row "merge" @ row "synthesize"
        @ [
            ( "merge_domains",
              match merge_sched with None -> "1" | Some m -> string_of_int m.ms_effective );
          ] ));
  let sy =
    {
      sy_trace = ts;
      sy_merged = merged;
      sy_proxy = proxy.m_value;
      sy_factor = factor;
      sy_merge_sched = merge_sched;
      sy_timings = timings;
      sy_status =
        {
          cs_root = Option.map Store.root store;
          cs_trace = ts.ts_outcome;
          cs_merge = merge.m_outcome;
          cs_proxy = proxy.m_outcome;
        };
    }
  in
  emit_synth_record sy;
  sy

let synthesize ?factor ?rle ?domains ts = synthesize_in None ?factor ?rle ?domains ts

let synthesize_spec ?(cache = false) ?store ?factor ?rle ?domains ?mode s =
  let store = open_store ~cache store in
  synthesize_in store ?factor ?rle ?domains (trace_stage_in store ?mode s)

(* Capture original and proxy, diff them, publish the headline scores
   and append one "diff" ledger record.  Each sub-step's wall seconds are
   returned in [f_timings] for the report's stage table. *)
let diff_synthesis sy =
  let s = sy.sy_trace.ts_spec in
  let timed name f =
    let r, t = Clock.wall f in
    (r, (name, t))
  in
  let check, t_check = timed "check" (fun () -> run_check s sy.sy_merged) in
  let (original, proxy, report, rows), total_s =
    Clock.wall (fun () ->
        let original, t_orig = timed "capture.original" (fun () -> capture_original s) in
        let proxy, t_proxy = timed "capture.proxy" (fun () -> capture_proxy_ir s sy.sy_proxy) in
        let report, t_diff =
          timed "diff" (fun () ->
              Span.with_ ~cat:"pipeline" "diff" (fun () -> Divergence.diff ~original ~proxy))
        in
        (original, proxy, report, [ t_orig; t_proxy; t_diff ]))
  in
  Divergence.publish_metrics report;
  Log.info (fun () ->
      ( "pipeline.diff",
        [
          ("workload", s.workload.Registry.name);
          ("lossless", string_of_bool report.Divergence.r_lossless);
          ("time_error", Printf.sprintf "%.4f" report.Divergence.r_time_error);
          ("timeline_distance", Printf.sprintf "%.4e" report.Divergence.r_timeline_distance);
        ] ));
  Ledger.emit (fun () ->
      Ledger.make ~kind:"diff" ~spec:(spec_kvs s)
        ~timings:[ ("diff.total", total_s) ]
        ~fidelity:(ledger_fidelity_of_report report)
        ~check:(ledger_check_of_report check) ());
  {
    f_original = original;
    f_proxy = proxy;
    f_report = report;
    f_check = check;
    f_timings = t_check :: rows;
  }

let check_synthesis ?fault sy =
  let s = sy.sy_trace.ts_spec in
  let merged =
    match fault with None -> sy.sy_merged | Some f -> Comm_check.perturb f sy.sy_merged
  in
  let report, total_s = Clock.wall (fun () -> run_check s merged) in
  Ledger.emit (fun () ->
      Ledger.make ~kind:"check" ~spec:(spec_kvs s)
        ~timings:[ ("check.total", total_s) ]
        ~check:(ledger_check_of_report report) ());
  report
