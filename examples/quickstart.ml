(* Quickstart: synthesize a proxy-app for NPB CG on 16 ranks.

     dune exec examples/quickstart.exe

   Walks the whole pipeline: trace the program under the simulated MPI
   runtime, compress the trace into a merged grammar, search computation
   proxies, emit the C proxy-app, and validate the result by replaying the
   proxy and comparing execution time and counters against the original. *)

module Pipeline = Siesta.Pipeline
module Evaluate = Siesta.Evaluate
module Engine = Siesta_mpi.Engine
module Recorder = Siesta_trace.Recorder

let () =
  let spec = Pipeline.spec ~workload:"CG" ~nranks:16 () in
  Printf.printf "== 1. trace ==\n";
  let ts = Pipeline.trace_stage spec in
  let traced = Option.get ts.Pipeline.ts_traced in
  Printf.printf "original run: %.4f s, %d MPI calls\n" traced.Pipeline.original.Engine.elapsed
    traced.Pipeline.original.Engine.total_calls;
  Printf.printf "tracing overhead: %.2f%%, raw trace: %s\n"
    (100.0 *. traced.Pipeline.overhead)
    (Siesta_util.Bytes_fmt.to_string (Recorder.raw_trace_bytes traced.Pipeline.recorder));

  Printf.printf "\n== 2. compress + merge + proxy search ==\n";
  let art = Pipeline.synthesize ts in
  Printf.printf "merged grammar: %s\n" (Siesta_merge.Merged.stats art.Pipeline.sy_merged);
  Printf.printf "exported size_C: %s (%.0fx smaller than the trace)\n"
    (Siesta_util.Bytes_fmt.to_string (Siesta_synth.Proxy_ir.size_c_bytes art.Pipeline.sy_proxy))
    (float_of_int (Recorder.raw_trace_bytes traced.Pipeline.recorder)
    /. float_of_int (Siesta_synth.Proxy_ir.size_c_bytes art.Pipeline.sy_proxy));

  Printf.printf "\n== 3. generate C ==\n";
  let path = Filename.concat (Filename.get_temp_dir_name ()) "cg16_proxy.c" in
  Siesta_synth.Codegen_c.write_file art.Pipeline.sy_proxy ~path;
  Printf.printf "wrote %s (compile with mpicc, run with mpirun -np 16)\n" path;

  Printf.printf "\n== 4. validate by replay ==\n";
  let proxy_run =
    Pipeline.run_proxy art ~platform:spec.Pipeline.platform ~impl:spec.Pipeline.impl
  in
  Printf.printf "proxy time: %.4f s vs original %.4f s (error %.2f%%)\n"
    proxy_run.Engine.elapsed traced.Pipeline.original.Engine.elapsed
    (100.0
    *. Evaluate.time_error ~estimated:proxy_run.Engine.elapsed
         ~original:traced.Pipeline.original.Engine.elapsed);
  Printf.printf "six-counter error: %.2f%%\n"
    (100.0 *. Evaluate.counter_error ~original:traced.Pipeline.original ~proxy:proxy_run)
