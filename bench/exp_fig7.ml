(* Figure 7: robustness to MPI implementation changes.  Proxies are
   generated under openmpi on platform A, then executed under openmpi,
   mpich and mvapich; ground truth is the original program run under each
   implementation.  Siesta's lossless communication replay tracks the
   implementation-specific pricing; ScalaBench's histogram-quantized,
   overlap-less replay does not. *)

open Exp_common
module Scalabench = Siesta_baselines.Scalabench

let nranks_for (w : Registry.t) = List.hd w.Registry.procs

let run () =
  heading "Figure 7: execution time under openmpi / mpich / mvapich (generated under openmpi)";
  let impls = Mpi_impl.all in
  let rows = ref [] in
  let siesta_errs = ref [] and sb_errs = ref [] in
  List.iter
    (fun (w : Registry.t) ->
      let nranks = nranks_for w in
      let s = Pipeline.spec ~workload:w.Registry.name ~nranks () in
      let platform = s.Pipeline.platform in
      let ts = Pipeline.trace_stage s in
      let traced = Option.get ts.Pipeline.ts_traced in
      let art = Pipeline.synthesize ts in
      let recorder = traced.Pipeline.recorder in
      let streams = Array.init nranks (fun r -> Recorder.events recorder r) in
      let sb =
        match
          Scalabench.synthesize ~platform ~workload:w.Registry.name ~nranks ~streams
            ~compute_table:(Recorder.compute_table recorder)
        with
        | sb -> Some sb
        | exception Scalabench.Unsupported _ -> None
      in
      List.iter
        (fun impl ->
          let original = (Pipeline.run_original s ~platform ~impl).Engine.elapsed in
          let siesta = (Pipeline.run_proxy art ~platform ~impl).Engine.elapsed in
          let sb_time =
            Option.map
              (fun sb -> (Engine.run ~platform ~impl ~nranks (Scalabench.program sb)).Engine.elapsed)
              sb
          in
          siesta_errs := time_err ~estimated:siesta ~original :: !siesta_errs;
          Option.iter
            (fun t -> sb_errs := time_err ~estimated:t ~original :: !sb_errs)
            sb_time;
          rows :=
            [
              w.Registry.name;
              string_of_int nranks;
              impl.Mpi_impl.name;
              secs original;
              secs siesta;
              (match sb_time with Some t -> secs t | None -> "crash");
            ]
            :: !rows)
        impls;
      Printf.eprintf "  [fig7] %s done\n%!" w.Registry.name)
    Registry.paper_workloads;
  table
    ~header:[ "Program"; "P"; "MPI impl"; "Original(s)"; "Siesta(s)"; "ScalaBench(s)" ]
    ~rows:(List.rev !rows);
  Printf.printf "\nmean time error: Siesta %s | ScalaBench %s\n"
    (pct (Evaluate.mean !siesta_errs))
    (pct (Evaluate.mean !sb_errs))
