(* The repository benchmark.  One command runs a named workload through
   the public API, checks every output, and prints the end-to-end metrics
   (--trace 0) or the per-layer table built from the benchmark's own
   spans (--trace 1).  The last line of stdout is the JSON result.
   Workloads, metrics and predictions are described in README.md. *)

module P = Siesta.Pipeline
module Cache = Siesta.Cache
module Report = Siesta.Report
module Registry = Siesta_workloads.Registry
module Engine = Siesta_mpi.Engine
module Recorder = Siesta_trace.Recorder
module Trace_io = Siesta_trace.Trace_io
module Compute_table = Siesta_trace.Compute_table
module Grammar = Siesta_grammar.Grammar
module Merged = Siesta_merge.Merged
module Merge_pipeline = Siesta_merge.Pipeline
module Proxy_ir = Siesta_synth.Proxy_ir
module Codegen_c = Siesta_synth.Codegen_c
module Store = Siesta_store.Store
module Codec = Siesta_store.Codec
module Comm_check = Siesta_analysis.Comm_check
module Divergence = Siesta_analysis.Divergence
module Sweep = Siesta_sweep.Sweep
module Parallel = Siesta_util.Parallel
module Rng = Siesta_util.Rng

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Each measured operation starts from a collected heap, so it does not
   pay for the garbage of the one before it. *)
let measured f =
  Gc.full_major ();
  timed f

(* ------------------------------------------------------------------ *)
(* Command line *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let tracing = ref false
let smoke = ref false

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " cold-regular | cold-irregular | warm-fidelity");
      ("--seed", Arg.Set_int seed, " input seed (spec order and spec seeds)");
      ("--seconds", Arg.Float (fun s -> seconds := s), " measured seconds");
      ( "--trace",
        Arg.Int (fun t -> tracing := t <> 0),
        " 0 = end-to-end metrics, 1 = per-layer table" );
      ("--smoke", Arg.Set smoke, " reduced sizes (the smoke test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1"

(* ------------------------------------------------------------------ *)
(* Samples and failures *)

let attempted = ref 0
let failures : (string * string) list ref = ref []

let fail label msg =
  failures := (label, msg) :: !failures;
  Printf.printf "FAIL %s: %s\n%!" label msg

let count_attempt () = incr attempted

(* One operation: counted, and any exception is a failure of [label]
   rather than the end of the run. *)
let attempt label f =
  count_attempt ();
  match f () with
  | v -> Some v
  | exception e ->
      fail label (Printexc.to_string e);
      None

let expect label ok msg = if not ok then fail label msg

let samples : (string, (string * float) list) Hashtbl.t = Hashtbl.create 16

let record metric label v =
  let prev = Option.value ~default:[] (Hashtbl.find_opt samples metric) in
  Hashtbl.replace samples metric ((label, v) :: prev)

let values metric = List.map snd (Option.value ~default:[] (Hashtbl.find_opt samples metric))

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A metric's samples grouped by spec label. *)
let by_spec metric =
  let by = Hashtbl.create 8 in
  List.iter
    (fun (l, v) -> Hashtbl.replace by l (v :: Option.value ~default:[] (Hashtbl.find_opt by l)))
    (Option.value ~default:[] (Hashtbl.find_opt samples metric));
  by

(* Mean over specs of each spec's median: steady however many samples
   each spec contributed. *)
let spec_median metric =
  let meds = Hashtbl.fold (fun _ vs acc -> median vs :: acc) (by_spec metric) [] in
  if meds = [] then nan else List.fold_left ( +. ) 0.0 meds /. float_of_int (List.length meds)

let sum l = List.fold_left ( +. ) 0.0 l

(* ------------------------------------------------------------------ *)
(* Inputs *)

type item = { label : string; spec : P.spec; factor : float }

(* Smoke sizes keep BT's rank counts square (256 -> 16, 64 -> 4). *)
let ranks n = if !smoke then max 4 (n / 16) else n

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Each spec's [seed] field comes from the run seed and the spec's place
   in the canonical list; the order the specs run in is a seeded
   shuffle. *)
let item rng (w, n) =
  let n = ranks n in
  let spec = P.spec ~workload:w ~nranks:n ~seed:(1 + Rng.int rng 1_000_000) () in
  { label = Printf.sprintf "%s%d" w n; spec; factor = 1.0 }

let items_of rng defs = shuffle rng (List.map (item rng) defs)

let cold_regular = [ ("Sweep3d", 256); ("MG", 256); ("CG", 256); ("BT", 256) ]

let cold_irregular =
  [ ("StirTurb", 256); ("Sod", 256); ("Sedov", 256); ("StirTurb", 512); ("IS", 256) ]

let warm_specs = [ ("CG", 256); ("StirTurb", 256); ("Sweep3d", 128) ]
let warm_factors = [ 1.0; 4.0; 16.0 ]

(* ------------------------------------------------------------------ *)
(* Scratch directories, all under the checkout *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let out_dir = ".perfbench"
let base = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ()))
let store_seq = ref 0

let fresh_store () =
  incr store_seq;
  let root = Filename.concat base (Printf.sprintf "store-%d" !store_seq) in
  rm_rf root;
  Store.open_ ~root ()

let drop_store st = rm_rf (Store.root st)

(* ------------------------------------------------------------------ *)
(* Public-API calls *)

let span = Spans.with_

let synth st it =
  let sy = P.synthesize_spec ~cache:true ~store:st ~factor:it.factor it.spec in
  (sy, Codegen_c.generate sy.P.sy_proxy)

let all_hits sy =
  let st = sy.P.sy_status in
  st.P.cs_trace = P.Cache_hit && st.P.cs_merge = P.Cache_hit && st.P.cs_proxy = P.Cache_hit

let events_of sy = sy.P.sy_trace.P.ts_meta.Codec.tm_total_events

let warm_replays = 3
let check_repeats = 3

(* Verification of one spec on a filled store: warm replays (every stage
   a hit, proxy.c identical to [cold_c]), then the static check (clean)
   and the replay diff (lossless). *)
let verify st it cold_c =
  (* only the last replay is kept, for the check and the diff *)
  let rec replay i =
    let r = attempt it.label (fun () -> measured (fun () -> synth st it)) in
    Option.iter
      (fun ((sy, c), dt) ->
        record "synth_warm_s" it.label dt;
        expect it.label (all_hits sy) "warm replay missed the store";
        expect it.label (c = cold_c) "warm proxy.c differs from the cold one")
      r;
    if i < warm_replays then replay (i + 1) else Option.map (fun ((sy, _), _) -> sy) r
  in
  match replay 1 with
  | None -> ()
  | Some sy -> (
      for _ = 1 to check_repeats do
        match attempt it.label (fun () -> measured (fun () -> P.check_synthesis sy)) with
        | Some (r, dt) ->
            record "check_s" it.label dt;
            expect it.label (Comm_check.verdict r = Comm_check.Clean) "Comm_check is not clean"
        | None -> ()
      done;
      match attempt it.label (fun () -> measured (fun () -> P.diff_synthesis sy)) with
      | Some (f, dt) ->
          record "diff_s" it.label dt;
          let r = f.P.f_report in
          record "time_err" it.label r.Divergence.r_time_error;
          expect it.label r.Divergence.r_lossless "Divergence replay is not lossless"
      | None -> ())

(* ------------------------------------------------------------------ *)
(* The pipeline composed from its public pieces (traced runs) *)

(* Per-layer counts and seconds, summed over a traced run. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let add name v =
  Hashtbl.replace counts name (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let count name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

(* Stage lookups and hits, for store.hit_ratio. *)
let count_lookups outcomes =
  add "store.lookups" (float_of_int (List.length outcomes));
  add "store.hits" (float_of_int (List.length (List.filter (( = ) P.Cache_hit) outcomes)))

let put_bound st ~op ~key ~descr ~kind blob =
  span ~layer:"store" ~op "store.put" (fun () ->
      let h = Store.put st blob in
      Store.bind st ~key ~hash:h ~kind ~descr;
      add "store.bytes_written" (float_of_int (String.length blob));
      h)

let platform_impl s =
  (s.P.platform.Siesta_platform.Spec.name, s.P.impl.Siesta_platform.Mpi_impl.name)

(* The trace stage's cache key, as the pipeline derives it. *)
let trace_key s =
  let platform, impl = platform_impl s in
  Cache.trace_key ~workload:s.P.workload.Registry.name ~nranks:s.P.nranks ~iters:s.P.iters
    ~seed:s.P.seed ~platform ~impl ~cluster_threshold:s.P.cluster_threshold ()

let composed_cold st it =
  let s = it.spec and op = it.label in
  span ~layer:"glue" ~op "synth_cold" @@ fun () ->
  let program = s.P.workload.Registry.program ~nranks:s.P.nranks ~iters:s.P.iters in
  let run ?hook () =
    Engine.run ~platform:s.P.platform ~impl:s.P.impl ~nranks:s.P.nranks ~seed:s.P.seed ?hook
      program
  in
  let bare, t_bare = timed (fun () -> span ~layer:"mpi" ~op "engine.run" (fun () -> run ())) in
  let recorder = Recorder.create ~nranks:s.P.nranks ~cluster_threshold:s.P.cluster_threshold () in
  let hooked, t_hooked =
    timed (fun () ->
        span ~layer:"trace" ~op "engine.run+recorder" (fun () ->
            run ~hook:(Recorder.hook recorder) ()))
  in
  let packed = span ~layer:"trace" ~op "trace_io.pack" (fun () -> Trace_io.pack recorder) in
  let events = Recorder.total_events recorder in
  let meta =
    {
      Codec.tm_original_elapsed = bare.Engine.elapsed;
      tm_instrumented_elapsed = hooked.Engine.elapsed;
      tm_original_calls = bare.Engine.total_calls;
      tm_instrumented_calls = hooked.Engine.total_calls;
      tm_total_events = events;
      tm_raw_bytes = Recorder.raw_trace_bytes recorder;
    }
  in
  let table =
    span ~layer:"trace" ~op "compute_table" (fun () -> Trace_io.packed_compute_table packed)
  in
  let platform, impl = platform_impl s in
  let key, descr = trace_key s in
  let blob =
    span ~layer:"store" ~op "codec.encode_trace" (fun () -> Codec.encode_trace ~meta packed)
  in
  let trace_hash = put_bound st ~op ~key ~descr ~kind:"trace" blob in
  (* the pipeline's merge configuration: the shared warm pool when it has
     more than one slot, otherwise sequential *)
  let pool =
    let p = Parallel.global () in
    if Parallel.size p > 1 then Some p else None
  in
  let config =
    {
      Merge_pipeline.default_config with
      rle = true;
      pool;
      domains = (match pool with None -> Some 1 | Some _ -> None);
    }
  in
  let before = Option.map Parallel.stats pool in
  let merged, t_merge =
    timed (fun () ->
        span ~layer:"merge" ~op "merge_recorder" (fun () ->
            Merge_pipeline.merge_recorder ~config recorder))
  in
  let after = Option.map Parallel.stats pool in
  let mblob =
    span ~layer:"store" ~op "codec.encode_merged" (fun () -> Codec.encode_merged merged)
  in
  let mkey, mdescr = Cache.merge_key ~trace_hash ~rle:true () in
  let merge_hash = put_bound st ~op ~key:mkey ~descr:mdescr ~kind:"merged" mblob in
  let proxy, t_search =
    timed (fun () ->
        span ~layer:"synth" ~op "proxy_ir.synthesize" (fun () ->
            Proxy_ir.synthesize ~platform:s.P.platform ~impl:s.P.impl ~factor:it.factor ~merged
              ~compute_table:table ()))
  in
  let c, t_codegen =
    timed (fun () ->
        span ~layer:"synth" ~op "codegen_c.generate" (fun () -> Codegen_c.generate proxy))
  in
  let pblob = span ~layer:"store" ~op "codec.encode_proxy" (fun () -> Codec.encode_proxy proxy) in
  let pkey, pdescr =
    Cache.proxy_key ~merge_hash ~trace_hash ~factor:it.factor ~platform ~impl ()
  in
  ignore (put_bound st ~op ~key:pkey ~descr:pdescr ~kind:"proxy" pblob);
  (* the per-layer counts, taken once the operation's clock has stopped *)
  let tally () =
    let grammars = Recorder.online_grammars recorder in
    let over f = float_of_int (Array.fold_left (fun a g -> a + f g) 0 grammars) in
    add "mpi.calls" (float_of_int bare.Engine.total_calls);
    add "mpi.engine_s" t_bare;
    add "trace.instrumented_s" t_hooked;
    add "trace.events" (float_of_int events);
    add "trace.distinct_events" (float_of_int (Array.length packed.Trace_io.p_defs));
    add "trace.clusters" (float_of_int (Compute_table.cluster_count table));
    add "grammar.rules" (over Grammar.rule_count);
    add "grammar.symbols" (over Grammar.entry_count);
    add "merge.merge_s" t_merge;
    add "merge.bytes" (float_of_int (Merged.serialized_bytes merged));
    (match (before, after) with
    | Some b, Some a ->
        let busy x = Array.fold_left ( +. ) 0.0 x.Parallel.busy_s in
        add "util.busy_s" (busy a -. busy b);
        add "util.capacity_s" (t_merge *. float_of_int a.Parallel.domains);
        add "util.dispatched_jobs"
          (float_of_int (a.Parallel.dispatched_jobs - b.Parallel.dispatched_jobs))
    | _ -> ());
    add "synth.s" (t_search +. t_codegen);
    add "synth.bytes" (float_of_int (String.length c))
  in
  (c, events, tally)

(* The warm path composed from its public pieces: resolve each stage key,
   then fetch and decode the blob. *)
let fetch st ~op ~key decode =
  let hash =
    span ~layer:"store" ~op "store.resolve" (fun () ->
        match Store.resolve st ~key with Some h -> h | None -> failwith "unbound stage key")
  in
  let blob =
    span ~layer:"store" ~op "store.get" (fun () ->
        match Store.get st hash with Some b -> b | None -> failwith "missing blob")
  in
  add "store.bytes_read" (float_of_int (String.length blob));
  count_lookups [ P.Cache_hit ];
  (hash, span ~layer:"store" ~op "codec.decode" (fun () -> decode blob))

let composed_warm st it =
  let s = it.spec and op = it.label in
  let platform, impl = platform_impl s in
  span ~layer:"glue" ~op "synth_warm" @@ fun () ->
  let key, _ = trace_key s in
  let trace_hash, (meta, packed) = fetch st ~op ~key Codec.decode_trace in
  let mkey, _ = Cache.merge_key ~trace_hash ~rle:true () in
  let merge_hash, merged = fetch st ~op ~key:mkey Codec.decode_merged in
  let pkey, _ = Cache.proxy_key ~merge_hash ~trace_hash ~factor:it.factor ~platform ~impl () in
  let _, proxy = fetch st ~op ~key:pkey Codec.decode_proxy in
  let c = span ~layer:"synth" ~op "codegen_c.generate" (fun () -> Codegen_c.generate proxy) in
  let hit = P.Cache_hit in
  let sy =
    {
      P.sy_trace =
        {
          P.ts_spec = s;
          ts_trace = packed;
          ts_meta = meta;
          ts_table = Trace_io.packed_compute_table packed;
          ts_hash = Some trace_hash;
          ts_outcome = hit;
          ts_traced = None;
          ts_timings = [];
        };
      sy_merged = merged;
      sy_proxy = proxy;
      sy_factor = it.factor;
      sy_merge_sched = None;
      sy_timings = [];
      sy_status =
        { P.cs_root = Some (Store.root st); cs_trace = hit; cs_merge = hit; cs_proxy = hit };
    }
  in
  (sy, c)

let comm_check ~op s merged =
  span ~layer:"analysis" ~op "comm_check.check" (fun () -> Comm_check.check ~impl:s.P.impl merged)

let replayed (c : Divergence.capture) = float_of_int c.Divergence.c_result.Engine.total_calls

let composed_diff ~op s merged proxy =
  span ~layer:"glue" ~op "diff_synthesis" @@ fun () ->
  let check = comm_check ~op s merged in
  let (original, proxy_c), t_capture =
    timed (fun () ->
        let o = span ~layer:"analysis" ~op "capture_original" (fun () -> P.capture_original s) in
        let p =
          span ~layer:"analysis" ~op "capture_proxy_ir" (fun () -> P.capture_proxy_ir s proxy)
        in
        (o, p))
  in
  add "analysis.replayed_calls" (replayed original +. replayed proxy_c);
  add "analysis.capture_s" t_capture;
  let r =
    span ~layer:"analysis" ~op "divergence.diff" (fun () ->
        Divergence.diff ~original ~proxy:proxy_c)
  in
  (check, r)

(* ------------------------------------------------------------------ *)
(* Loops *)

(* Set-ups per run; setup_s is their median. *)
let setups = 3

(* Complete passes until [seconds] have elapsed (at least one). *)
let passes f =
  let t0 = now () in
  let first = ref true in
  while !first || now () -. t0 < !seconds do
    f ();
    first := false
  done

(* ------------------------------------------------------------------ *)
(* cold-regular, cold-irregular *)

(* One cold synth on an empty store through the public call, or in a
   traced run through its composition from public pieces. *)
let cold_synth ~traced st it =
  Spans.on := traced;
  let r =
    attempt it.label (fun () ->
        measured (fun () ->
            if traced then composed_cold st it
            else begin
              let sy, c = synth st it in
              let status = sy.P.sy_status in
              count_lookups [ status.P.cs_trace; status.P.cs_merge; status.P.cs_proxy ];
              expect it.label (status.P.cs_trace = P.Cache_miss) "cold synth hit the store";
              (c, events_of sy, ignore)
            end))
  in
  Spans.on := false;
  r

(* An empty store and a warm-up synth, so lazy initialisation (the domain
   pool among it) is done before anything is timed. *)
let cold_setup rng =
  let warmup = item rng ("CG", 64) in
  for _ = 1 to if !tracing then 1 else setups do
    let st, dt =
      measured (fun () ->
          let st = fresh_store () in
          ignore (synth st warmup);
          st)
    in
    record "setup_s" "warm-up" dt;
    drop_store st
  done

(* Passes over the specs, each on an empty store: a cold synth per spec,
   then that spec's verification, so every figure is sampled across the
   whole run. *)
let run_cold rng defs =
  let items = items_of rng defs in
  let reference = Hashtbl.create 8 in
  let same it c what =
    match Hashtbl.find_opt reference it.label with
    | Some c0 -> expect it.label (c = c0) what
    | None -> Hashtbl.replace reference it.label c
  in
  cold_setup rng;
  passes (fun () ->
      let st = fresh_store () in
      (* a traced run pairs each composition with the public call on a
         store of its own: the reference for its bytes and its overhead *)
      let st_ref = if !tracing then Some (fresh_store ()) else None in
      List.iter
        (fun it ->
          Option.iter
            (fun st_ref ->
              Option.iter
                (fun ((c, _, _), dt) ->
                  record "op_s" it.label dt;
                  same it c "proxy.c differs between passes")
                (cold_synth ~traced:false st_ref it))
            st_ref;
          match cold_synth ~traced:!tracing st it with
          | None -> ()
          | Some ((c, events, tally), dt) ->
              tally ();
              if !tracing then begin
                record "traced_op_s" it.label dt;
                same it c "composed proxy.c differs from synthesize_spec's"
              end
              else begin
                record "op_s" it.label dt;
                record "synth_cold_s" it.label dt;
                record "events" it.label (float_of_int events);
                same it c "proxy.c differs between passes"
              end;
              verify st it c)
        items;
      Option.iter drop_store st_ref;
      drop_store st);
  record "proxy_c_bytes" "all"
    (float_of_int (Hashtbl.fold (fun _ c acc -> acc + String.length c) reference 0))

(* ------------------------------------------------------------------ *)
(* warm-fidelity *)

let sweep_ok it (sw : Sweep.t) =
  expect it.label (Sweep.comm_divergent sw = []) "sweep found a comm-divergent factor";
  List.iter
    (fun (p : Sweep.point) ->
      expect it.label
        (List.for_all (fun (_, o) -> o = "hit") p.Sweep.p_cache)
        (Printf.sprintf "sweep factor %g missed the store" p.Sweep.p_factor))
    sw.Sweep.s_points

let run_warm rng =
  let items = items_of rng warm_specs in
  let reference = Hashtbl.create 16 in
  let fill () =
    let st = fresh_store () in
    List.iter
      (fun it ->
        List.iter
          (fun factor ->
            let it = { it with factor } in
            match attempt it.label (fun () -> measured (fun () -> synth st it)) with
            | Some ((sy, c), dt) ->
                let key = (it.label, factor) in
                if factor = 1.0 then begin
                  record "synth_cold_s" it.label dt;
                  record "events" it.label (float_of_int (events_of sy))
                end;
                (match Hashtbl.find_opt reference key with
                | Some c0 -> expect it.label (c = c0) "proxy.c differs between set-ups"
                | None -> Hashtbl.replace reference key c)
            | None -> ())
          warm_factors)
      items;
    st
  in
  let factors = warm_factors in
  let cold_c it = Option.value ~default:"" (Hashtbl.find_opt reference (it.label, 1.0)) in
  (* One spec's operation through the public calls, or in a traced run
     through their composition from public pieces. *)
  let spec_op ~traced st it =
    let op = it.label and s = it.spec in
    let total = ref 0.0 in
    let step name f =
      count_attempt ();
      match measured f with
      | v, dt ->
          total := !total +. dt;
          if not traced then record name op dt;
          Some v
      | exception e ->
          fail op (name ^ ": " ^ Printexc.to_string e);
          None
    in
    let warm =
      step "synth_warm_s" (fun () -> if traced then composed_warm st it else synth st it)
    in
    (match warm with
    | None -> ()
    | Some (sy, c) ->
        (* more samples of the short check, outside the operation *)
        if not traced then
          for _ = 2 to check_repeats do
            Option.iter
              (fun (_, dt) -> record "check_s" op dt)
              (attempt op (fun () -> measured (fun () -> P.check_synthesis sy)))
          done;
        expect op (all_hits sy) "warm synth missed the store";
        expect op (c = cold_c it) "warm proxy.c differs from the cold one";
        let check () =
          if traced then
            span ~layer:"glue" ~op "check_synthesis" (fun () -> comm_check ~op s sy.P.sy_merged)
          else P.check_synthesis sy
        in
        Option.iter
          (fun r ->
            expect op (Comm_check.verdict r = Comm_check.Clean) "Comm_check is not clean")
          (step "check_s" check);
        let diff () =
          if traced then snd (composed_diff ~op s sy.P.sy_merged sy.P.sy_proxy)
          else (P.diff_synthesis sy).P.f_report
        in
        Option.iter
          (fun r ->
            record "time_err" op r.Divergence.r_time_error;
            expect op r.Divergence.r_lossless "Divergence replay is not lossless")
          (step "diff_s" diff);
        ignore
          (step "report_s" (fun () ->
               span ~layer:"analysis" ~op "report.generate_synthesis" (fun () ->
                   Report.generate_synthesis sy)));
        Option.iter (sweep_ok it)
          (step "sweep_s" (fun () ->
               span ~layer:"analysis" ~op "sweep.run" (fun () ->
                   Sweep.run ~cache:true ~store:st ~factors s))));
    record (if traced then "traced_op_s" else "op_s") op !total
  in
  let setup () =
    let st, dt = measured fill in
    record "setup_s" "fill" dt;
    st
  in
  if not !tracing then begin
    (* set-ups alternate with passes, so both are sampled across the run *)
    let t0 = now () and k = ref 0 in
    while !k < setups || now () -. t0 < !seconds do
      let st = setup () in
      List.iter (spec_op ~traced:false st) items;
      drop_store st;
      incr k
    done
  end
  else begin
    (* each traced operation follows the untraced one it is compared with *)
    let st = setup () in
    passes (fun () ->
        List.iter
          (fun it ->
            spec_op ~traced:false st it;
            Spans.on := true;
            spec_op ~traced:true st it;
            Spans.on := false)
          items);
    drop_store st
  end;
  record "proxy_c_bytes" "all"
    (float_of_int
       (Hashtbl.fold
          (fun (_, f) c acc -> if f = 1.0 then acc + String.length c else acc)
          reference 0))

(* ------------------------------------------------------------------ *)
(* Output *)

let print_table rows =
  let w = List.fold_left (fun a (k, _) -> max a (String.length k)) 0 rows in
  List.iter (fun (k, v) -> Printf.printf "  %-*s  %s\n" w k v) rows

(* Per-spec medians, for reading the end-to-end figures. *)
let print_specs () =
  let metrics =
    [
      "op_s"; "synth_cold_s"; "synth_warm_s"; "check_s"; "diff_s"; "report_s"; "sweep_s"; "time_err";
    ]
  in
  let tables = List.map by_spec metrics in
  let labels =
    List.sort_uniq compare
      (List.concat_map (fun t -> Hashtbl.fold (fun l _ acc -> l :: acc) t []) tables)
  in
  Printf.printf "per-spec medians (s; time_err in %%)\n  %-14s" "spec";
  List.iter (Printf.printf " %12s") metrics;
  print_newline ();
  List.iter
    (fun l ->
      Printf.printf "  %-14s" l;
      List.iter2
        (fun m t ->
          match Hashtbl.find_opt t l with
          | None -> Printf.printf " %12s" "-"
          | Some vs ->
              let v = median vs in
              Printf.printf " %12.4f" (if m = "time_err" then 100.0 *. v else v))
        metrics tables;
      print_newline ())
    labels

let end_to_end () =
  let heap =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  [
    ("setup_s", median (values "setup_s"), "s");
    ("op_p50_s", spec_median "op_s", "s");
    (* closed loop, one client: operations over the time spent in them *)
    ("ops_per_s", float_of_int (List.length (values "op_s")) /. sum (values "op_s"), "1/s");
    ("synth_cold_s", spec_median "synth_cold_s", "s");
    ("check_s", spec_median "check_s", "s");
    ("diff_s", spec_median "diff_s", "s");
    ("trace_events_per_s", sum (values "events") /. sum (values "synth_cold_s"), "1/s");
    ("peak_heap_mb", heap, "MB");
    ("proxy_c_bytes", sum (values "proxy_c_bytes"), "bytes");
  ]

let layers = [ "mpi"; "trace"; "merge"; "synth"; "store"; "analysis" ]

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Self time per layer over the traced operations; [glue] is the rest
   of their wall, so the rows sum to it. *)
let per_layer spans =
  let wall = sum (values "traced_op_s") in
  let self = Spans.layer_self spans in
  let self_of l = Option.value ~default:0.0 (Hashtbl.find_opt self l) in
  let glue = wall -. sum (List.map self_of layers) in
  let total_of names = sum (List.map (fun name -> Spans.total ~name spans) names) in
  let encode_put =
    total_of [ "store.put"; "codec.encode_trace"; "codec.encode_merged"; "codec.encode_proxy" ]
  in
  let get_decode = total_of [ "store.resolve"; "store.get"; "codec.decode" ] in
  let overhead = ratio (spec_median "traced_op_s" -. spec_median "op_s") (spec_median "op_s") in
  ( [ ("glue.self_share", ratio glue wall, "share") ]
    @ List.map (fun l -> (l ^ ".self_share", ratio (self_of l) wall, "share")) layers
    @ [
        ("bench.tracing_overhead_share", overhead, "share");
        ("mpi.calls", count "mpi.calls", "count");
        ("mpi.calls_per_s", ratio (count "mpi.calls") (count "mpi.engine_s"), "1/s");
        ("trace.events", count "trace.events", "count");
        ("trace.distinct_events", count "trace.distinct_events", "count");
        ("trace.clusters", count "trace.clusters", "count");
        ("trace.events_per_s", ratio (count "trace.events") (count "trace.instrumented_s"), "1/s");
        ( "trace.tracer_engine_ratio",
          ratio (count "trace.instrumented_s") (count "mpi.engine_s"),
          "x" );
        ("grammar.rules", count "grammar.rules", "count");
        ("grammar.symbols", count "grammar.symbols", "count");
        ("grammar.compression", ratio (count "trace.events") (count "grammar.symbols"), "x");
        ("merge.bytes", count "merge.bytes", "bytes");
        ("merge.events_per_s", ratio (count "trace.events") (count "merge.merge_s"), "1/s");
        ("util.pool_busy_share", ratio (count "util.busy_s") (count "util.capacity_s"), "share");
        ("util.dispatched_jobs", count "util.dispatched_jobs", "count");
        ("synth.bytes_per_s", ratio (count "synth.bytes") (count "synth.s"), "B/s");
        ("store.bytes_written", count "store.bytes_written", "bytes");
        ("store.write_bytes_per_s", ratio (count "store.bytes_written") encode_put, "B/s");
        ("store.bytes_read", count "store.bytes_read", "bytes");
        ("store.read_bytes_per_s", ratio (count "store.bytes_read") get_decode, "B/s");
        ("store.hit_ratio", ratio (count "store.hits") (count "store.lookups"), "share");
        ("analysis.fidelity_time_err_pct", 100.0 *. spec_median "time_err", "%");
        ( "analysis.replayed_calls_per_s",
          ratio (count "analysis.replayed_calls") (count "analysis.capture_s"),
          "1/s" );
      ],
    wall,
    glue )

let print_layer_table spans wall glue =
  let row v = Printf.sprintf "%10.4f s  %6.2f%%" v (100.0 *. ratio v wall) in
  let by_name = Hashtbl.fold (fun k v acc -> (k, v) :: acc) (Spans.name_self spans) [] in
  let self = Spans.layer_self spans in
  let rows =
    List.concat_map
      (fun l ->
        match Hashtbl.find_opt self l with
        | None -> []
        | Some v ->
            let prefix = l ^ "/" in
            let n = String.length prefix in
            (l, row v)
            :: List.filter_map
                 (fun (k, v) ->
                   if String.length k > n && String.sub k 0 n = prefix then
                     Some ("  " ^ String.sub k n (String.length k - n), row v)
                   else None)
                 (List.sort compare by_name))
      layers
  in
  Printf.printf "per-layer self time over %.3f s of traced operations\n" wall;
  print_table (rows @ [ ("glue (unaccounted)", row glue) ]);
  let traced = spec_median "traced_op_s" and untraced = spec_median "op_s" in
  Printf.printf
    "tracing overhead per operation: traced %.4f s - untraced %.4f s = %.4f s (%.1f%%)\n"
    traced untraced (traced -. untraced) (100.0 *. ratio (traced -. untraced) untraced)

let json_number v =
  if Float.is_integer v then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let () =
  let rng = Rng.create !seed in
  let run =
    match !workload with
    | "cold-regular" -> fun () -> run_cold rng cold_regular
    | "cold-irregular" -> fun () -> run_cold rng cold_irregular
    | "warm-fidelity" -> fun () -> run_warm rng
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  mkdir_p base;
  let started = now () in
  Fun.protect ~finally:(fun () -> rm_rf base) run;
  let failed = List.length !failures in
  let attempted = max 1 !attempted in
  Printf.printf "workload %s  seed %d  trace %b  run wall %.2f s\n" !workload !seed !tracing
    (now () -. started);
  Printf.printf "attempted %d  failed %d  failed_share %g\n" attempted failed
    (float_of_int failed /. float_of_int attempted);
  print_specs ();
  let rows =
    if not !tracing then end_to_end ()
    else begin
      let spans = Spans.all () in
      let metrics, wall, glue = per_layer spans in
      print_layer_table spans wall glue;
      let path = Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.json" !workload !seed) in
      Spans.write ~path ~origin:started spans;
      Printf.printf "spans written to %s\n" path;
      metrics
    end
  in
  print_table (List.map (fun (k, v, u) -> (k, Printf.sprintf "%.6g %s" v u)) rows);
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} (failed = 0)
    attempted failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} k (json_number v) u)
          rows));
  print_newline ()
