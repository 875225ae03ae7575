(* Tests for the simulated-time fidelity observatory: per-rank timelines,
   critical-path extraction and the proxy-vs-original divergence report
   (siesta diff). *)

module Timeline = Siesta_analysis.Timeline
module Critical_path = Siesta_analysis.Critical_path
module Divergence = Siesta_analysis.Divergence
module Pipeline = Siesta.Pipeline
module Registry = Siesta_workloads.Registry
module E = Siesta_mpi.Engine
module D = Siesta_mpi.Datatype
module Counters = Siesta_perf.Counters
module Json = Siesta_obs.Json

let platform = Siesta_platform.Spec.platform_a
let impl = Siesta_platform.Mpi_impl.openmpi
let feq = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Golden critical path: 2-rank ping-pong.

   rank 0: sleep 1 ms; send 1000 B (eager); recv the reply
   rank 1: recv; sleep 2 ms; send the reply

   The critical path must thread rank0's sleep -> the matched transfer
   -> rank1's sleep -> the reply -> rank0's final recv, so both sleeps
   (3 ms of compute) are on the path and the attributions sum exactly to
   the run's elapsed simulated time. *)

let ping_pong ctx =
  match E.rank ctx with
  | 0 ->
      E.sleep ctx 1e-3;
      E.send ctx ~dest:1 ~tag:7 ~dt:D.Byte ~count:1000;
      E.recv ctx ~src:1 ~tag:8 ~dt:D.Byte ~count:1000
  | _ ->
      E.recv ctx ~src:0 ~tag:7 ~dt:D.Byte ~count:1000;
      E.sleep ctx 2e-3;
      E.send ctx ~dest:0 ~tag:8 ~dt:D.Byte ~count:1000

let test_ping_pong_critical_path () =
  let tl, res = Timeline.record ~platform ~impl ~nranks:2 ping_pong in
  let cp = Critical_path.compute tl in
  feq "length = elapsed" res.E.elapsed cp.Critical_path.length;
  let sum l = List.fold_left (fun a (_, s) -> a +. s) 0.0 l in
  feq "by_name sums to length" cp.Critical_path.length (sum cp.Critical_path.by_name);
  feq "by_kind sums to length" cp.Critical_path.length (sum cp.Critical_path.by_kind);
  let compute_s =
    List.assoc Timeline.Compute cp.Critical_path.by_kind
  in
  feq "both sleeps on the path" 3e-3 compute_s;
  (* the path hops ranks at least twice (0 -> 1 for the reply's sender,
     1 -> 0 for the forward message) *)
  let hops =
    Array.fold_left
      (fun a s -> if s.Critical_path.st_remote then a + 1 else a)
      0 cp.Critical_path.steps
  in
  Alcotest.(check bool) "has cross-rank hops" true (hops >= 2);
  (* steps tile (0, length] chronologically *)
  let ok = ref true in
  let prev = ref 0.0 in
  Array.iter
    (fun s ->
      if s.Critical_path.st_t0 <> !prev || s.Critical_path.st_t1 <= s.Critical_path.st_t0 then
        ok := false;
      prev := s.Critical_path.st_t1)
    cp.Critical_path.steps;
  Alcotest.(check bool) "steps tile the interval" true (!ok && !prev = cp.Critical_path.length)

let test_ping_pong_matches () =
  let tl, _ = Timeline.record ~platform ~impl ~nranks:2 ping_pong in
  Alcotest.(check int) "two matched transfers" 2 (Array.length tl.Timeline.matches);
  let m = tl.Timeline.matches.(0) in
  Alcotest.(check int) "first match src" 0 m.Timeline.pm_src;
  Alcotest.(check int) "first match dst" 1 m.Timeline.pm_dst;
  Alcotest.(check bool) "1000 B is eager under openmpi" false m.Timeline.pm_rdv;
  Alcotest.(check int) "payload bytes" 1000 m.Timeline.pm_bytes

(* ------------------------------------------------------------------ *)
(* Property: per-rank segments are ordered, contiguous, non-overlapping
   and tile [0, per_rank_elapsed]. *)

let check_tiling tl =
  let open Timeline in
  Array.iteri
    (fun r segs ->
      let cursor = ref 0.0 in
      Array.iter
        (fun s ->
          if s.t1 <= s.t0 then failwith "empty or inverted segment";
          if s.t0 <> !cursor then failwith "gap or overlap";
          cursor := s.t1)
        segs;
      if abs_float (!cursor -. tl.per_rank_elapsed.(r)) > 1e-12 then
        failwith "segments do not sum to the rank's elapsed time")
    tl.segments;
  true

let prop_segments_tile =
  QCheck.Test.make ~name:"timeline segments tile each rank's clock (qcheck)" ~count:8
    (QCheck.pair (QCheck.int_range 0 2) (QCheck.int_range 0 1000))
    (fun (wi, seed) ->
      let workload, nranks =
        match wi with 0 -> ("CG", 8) | 1 -> ("MG", 8) | _ -> ("Sweep3d", 16)
      in
      let w = Registry.find workload in
      let tl, res =
        Timeline.record ~platform ~impl ~nranks ~seed
          (w.Registry.program ~nranks ~iters:(Some 2))
      in
      check_tiling tl
      && tl.Timeline.nranks = nranks
      && tl.Timeline.elapsed = res.E.elapsed)

(* ------------------------------------------------------------------ *)
(* Kind totals and wait breakdown are consistent with the tiling. *)

let test_kind_totals () =
  let tl, _ = Timeline.record ~platform ~impl ~nranks:2 ping_pong in
  for r = 0 to 1 do
    let totals = Timeline.kind_totals tl r in
    Alcotest.(check int) "three kinds" 3 (List.length totals);
    let sum = List.fold_left (fun a (_, s) -> a +. s) 0.0 totals in
    feq "kind totals tile the rank clock" tl.Timeline.per_rank_elapsed.(r) sum
  done;
  (* rank 0's final recv waits out rank 1's 2 ms sleep *)
  match Timeline.wait_breakdown tl 0 with
  | (name, _, s) :: _ ->
      Alcotest.(check string) "dominant wait call" "MPI_Recv" name;
      Alcotest.(check bool) "waited at least the peer sleep" true (s >= 2e-3)
  | [] -> Alcotest.fail "rank 0 has no wait segments"

(* ------------------------------------------------------------------ *)
(* Chrome export: one track per rank, simulated-clock marker. *)

let test_chrome_export () =
  let nranks = 8 in
  let w = Registry.find "CG" in
  let tl, _ =
    Timeline.record ~platform ~impl ~nranks (w.Registry.program ~nranks ~iters:(Some 2))
  in
  let json = Timeline.to_chrome_json tl in
  match Json.parse json with
  | Error e -> Alcotest.fail ("chrome JSON does not parse: " ^ e)
  | Ok doc ->
      let clock =
        Option.bind (Json.member "otherData" doc) (fun o ->
            Option.bind (Json.member "clock" o) Json.to_string_opt)
      in
      Alcotest.(check (option string)) "clock marker" (Some "simulated") clock;
      let events =
        match Json.member "traceEvents" doc with
        | Some e -> Json.to_list e
        | None -> Alcotest.fail "no traceEvents"
      in
      let tids = Hashtbl.create 16 in
      List.iter
        (fun e ->
          match Option.bind (Json.member "tid" e) Json.to_float_opt with
          | Some tid -> Hashtbl.replace tids tid ()
          | None -> ())
        events;
      Alcotest.(check int) "one track per rank" nranks (Hashtbl.length tids)

(* ------------------------------------------------------------------ *)
(* Divergence: self-diff is exactly zero. *)

let test_self_diff_zero () =
  let nranks = 8 in
  let w = Registry.find "CG" in
  let program = w.Registry.program ~nranks ~iters:(Some 2) in
  let c = Divergence.capture ~platform ~impl ~nranks program in
  let r = Divergence.diff ~original:c ~proxy:c in
  Alcotest.(check bool) "lossless" true r.Divergence.r_lossless;
  Alcotest.(check (list string)) "no reasons" [] r.Divergence.r_reasons;
  feq "comm matrix distance" 0.0 r.Divergence.r_comm_matrix_dist;
  feq "timeline distance" 0.0 r.Divergence.r_timeline_distance;
  feq "time error" 0.0 r.Divergence.r_time_error;
  Alcotest.(check int) "no unpaired compute events" 0 r.Divergence.r_compute_unpaired;
  List.iter
    (fun m ->
      feq
        (Printf.sprintf "%s error" (Counters.metric_name m.Divergence.me_metric))
        0.0 m.Divergence.me_max)
    r.Divergence.r_compute_errors;
  Alcotest.(check string) "verdict" "faithful"
    (Divergence.verdict_name (Divergence.verdict r))

(* ------------------------------------------------------------------ *)
(* End-to-end diff of a real synthesis: comm replay must be lossless. *)

let artifact =
  lazy
    (let s = Pipeline.spec ~workload:"CG" ~nranks:8 () in
     Pipeline.synthesize_spec s)

let test_pipeline_diff_lossless () =
  let art = Lazy.force artifact in
  let fid = Pipeline.diff_synthesis art in
  let r = fid.Pipeline.f_report in
  Alcotest.(check bool) "lossless comm replay" true r.Divergence.r_lossless;
  Alcotest.(check int) "six metrics" 6 (List.length r.Divergence.r_compute_errors);
  List.iter
    (fun m -> Alcotest.(check bool) "metric errors finite" true (Float.is_finite m.Divergence.me_mean))
    r.Divergence.r_compute_errors;
  match Divergence.verdict r with
  | Divergence.Comm_divergent reasons ->
      Alcotest.fail ("unexpected comm divergence: " ^ String.concat "; " reasons)
  | _ -> ()

let test_perturbed_diff_detected () =
  let art = Lazy.force artifact in
  let bad = { art with Pipeline.sy_proxy = Divergence.perturb `Comm art.Pipeline.sy_proxy } in
  let fid = Pipeline.diff_synthesis bad in
  let r = fid.Pipeline.f_report in
  Alcotest.(check bool) "not lossless" false r.Divergence.r_lossless;
  Alcotest.(check bool) "has reasons" true (r.Divergence.r_reasons <> []);
  (match Divergence.verdict r with
  | Divergence.Comm_divergent _ -> ()
  | v -> Alcotest.fail ("expected comm-divergent, got " ^ Divergence.verdict_name v));
  (* the markdown and JSON renderings must surface the violation *)
  let md = Divergence.to_markdown r in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "markdown mentions NOT lossless" true (contains md "NOT lossless")

let test_perturb_compute () =
  let art = Lazy.force artifact in
  let bad = { art with Pipeline.sy_proxy = Divergence.perturb `Compute art.Pipeline.sy_proxy } in
  let fid = Pipeline.diff_synthesis bad in
  let r = fid.Pipeline.f_report in
  Alcotest.(check bool) "comm still lossless" true r.Divergence.r_lossless;
  match Divergence.verdict ~compute_tolerance:0.05 r with
  | Divergence.Compute_divergent _ -> ()
  | v ->
      Alcotest.fail
        ("expected compute-divergent under a 5% tolerance, got " ^ Divergence.verdict_name v)

(* ------------------------------------------------------------------ *)
(* Rule attribution on a real grammar: sums to the path length. *)

let test_rule_attribution_sums () =
  let art = Lazy.force artifact in
  let cap = Pipeline.capture_original art.Pipeline.sy_trace.Pipeline.ts_spec in
  let cp =
    Critical_path.compute ~merged:art.Pipeline.sy_merged cap.Divergence.c_timeline
  in
  let sum l = List.fold_left (fun a (_, s) -> a +. s) 0.0 l in
  Alcotest.(check bool) "rule attribution present" true (cp.Critical_path.by_rule <> []);
  feq "by_rule sums to length" cp.Critical_path.length (sum cp.Critical_path.by_rule);
  feq "by_name sums to length" cp.Critical_path.length (sum cp.Critical_path.by_name)

let suite =
  [
    Alcotest.test_case "ping-pong critical path (golden)" `Quick test_ping_pong_critical_path;
    Alcotest.test_case "ping-pong p2p matches" `Quick test_ping_pong_matches;
    Alcotest.test_case "kind totals + wait breakdown" `Quick test_kind_totals;
    Alcotest.test_case "chrome export: tracks + clock marker" `Quick test_chrome_export;
    Alcotest.test_case "self-diff is zero" `Quick test_self_diff_zero;
    Alcotest.test_case "pipeline diff: lossless comm replay" `Quick test_pipeline_diff_lossless;
    Alcotest.test_case "perturbed comm is detected" `Quick test_perturbed_diff_detected;
    Alcotest.test_case "perturbed compute is detected" `Quick test_perturb_compute;
    Alcotest.test_case "rule attribution sums" `Quick test_rule_attribution_sums;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_segments_tile ]
