(* Figure 6: proxy-app execution time versus the original program, for
   Siesta, Siesta-scaled (x10, reported time multiplied back), ScalaBench
   and Pilgrim, on the generation platform (A, openmpi).

   Expected shape: Siesta a few percent, Siesta-scaled slightly worse,
   ScalaBench worse and crashing on SP@256/529 + FLASH, Pilgrim wildly off
   (no computation fill; the paper reports 84.3%). *)

open Exp_common
module Scalabench = Siesta_baselines.Scalabench
module Pilgrim = Siesta_baselines.Pilgrim

let scale_factor = 10.0

type row = {
  name : string;
  nranks : int;
  original : float;
  siesta : float;
  siesta_scaled : float;
  scalabench : float option;  (* None = generation crash *)
  pilgrim : float;
}

let run_one (w : Registry.t) nranks =
  let s = Pipeline.spec ~workload:w.Registry.name ~nranks () in
  let platform = s.Pipeline.platform and impl = s.Pipeline.impl in
  let ts = Pipeline.trace_stage s in
  let traced = Option.get ts.Pipeline.ts_traced in
  let original = traced.Pipeline.original.Engine.elapsed in
  let art = Pipeline.synthesize ts in
  let siesta = (Pipeline.run_proxy art ~platform ~impl).Engine.elapsed in
  let art10 = Pipeline.synthesize ~factor:scale_factor ts in
  let siesta_scaled =
    scale_factor *. (Pipeline.run_proxy art10 ~platform ~impl).Engine.elapsed
  in
  let recorder = traced.Pipeline.recorder in
  let streams = Array.init nranks (fun r -> Recorder.events recorder r) in
  let scalabench =
    match
      Scalabench.synthesize ~platform ~workload:w.Registry.name ~nranks ~streams
        ~compute_table:(Recorder.compute_table recorder)
    with
    | sb -> Some (Engine.run ~platform ~impl ~nranks (Scalabench.program sb)).Engine.elapsed
    | exception Scalabench.Unsupported msg ->
        Printf.eprintf "  [fig6] ScalaBench: %s\n%!" msg;
        None
  in
  let pilgrim =
    (Engine.run ~platform ~impl ~nranks (Pilgrim.program art.Pipeline.sy_merged)).Engine.elapsed
  in
  { name = w.Registry.name; nranks; original; siesta; siesta_scaled; scalabench; pilgrim }

let run () =
  heading "Figure 6: proxy-app execution time (platform A, openmpi)";
  let rows =
    List.concat_map
      (fun (w : Registry.t) ->
        List.map
          (fun p ->
            let r = run_one w p in
            Printf.eprintf "  [fig6] %s %d done\n%!" w.Registry.name p;
            r)
          (procs_of w))
      Registry.paper_workloads
  in
  table
    ~header:
      [ "Program"; "P"; "Original(s)"; "Siesta(s)"; "Siesta-scaled(s)"; "ScalaBench(s)"; "Pilgrim(s)" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.name;
             string_of_int r.nranks;
             secs r.original;
             secs r.siesta;
             secs r.siesta_scaled;
             (match r.scalabench with Some t -> secs t | None -> "crash");
             secs r.pilgrim;
           ])
         rows);
  let err ?(only = fun _ -> true) f =
    Evaluate.mean
      (List.filter_map
         (fun r ->
           if only r then Option.map (fun v -> time_err ~estimated:v ~original:r.original) (f r)
           else None)
         rows)
  in
  Printf.printf
    "\nmean time error: Siesta %s | Siesta-scaled %s | ScalaBench %s (crashed runs excluded) | Pilgrim %s\n"
    (pct (err (fun r -> Some r.siesta)))
    (pct (err (fun r -> Some r.siesta_scaled)))
    (pct (err (fun r -> r.scalabench)))
    (pct (err (fun r -> Some r.pilgrim)));
  let small r = r.nranks <= 128 in
  Printf.printf
    "at <=128 ranks (compute-bound, closest to the paper's full-length runs): Siesta %s | Siesta-scaled %s\n\
     (our traces scale down iteration counts, so the largest runs are latency-bound and a\n\
     shrunk proxy cannot shrink the per-message latency floor)\n"
    (pct (err ~only:small (fun r -> Some r.siesta)))
    (pct (err ~only:small (fun r -> Some r.siesta_scaled)))
