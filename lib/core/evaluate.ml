module Engine = Siesta_mpi.Engine
module Counters = Siesta_perf.Counters
module Codec = Siesta_store.Codec
module Proxy_ir = Siesta_synth.Proxy_ir

let time_error ~estimated ~original =
  if original = 0.0 then 0.0 else abs_float (estimated -. original) /. original

let counter_error ~original ~proxy =
  let po = original.Engine.per_rank_counters and pp = proxy.Engine.per_rank_counters in
  let n = Array.length po in
  if n = 0 || n <> Array.length pp then invalid_arg "Evaluate.counter_error: rank mismatch";
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. Counters.mean_relative_error ~actual:pp.(r) ~reference:po.(r)
  done;
  !acc /. float_of_int n

let per_metric_errors ~original ~proxy =
  let po = original.Engine.per_rank_counters and pp = proxy.Engine.per_rank_counters in
  let n = Array.length po in
  if n = 0 || n <> Array.length pp then invalid_arg "Evaluate.per_metric_errors: rank mismatch";
  List.map
    (fun metric ->
      let acc = ref 0.0 and used = ref 0 in
      for r = 0 to n - 1 do
        let reference = Counters.get po.(r) metric in
        if reference <> 0.0 then begin
          incr used;
          acc := !acc +. (abs_float (Counters.get pp.(r) metric -. reference) /. reference)
        end
      done;
      (metric, if !used = 0 then 0.0 else !acc /. float_of_int !used))
    Counters.all_metrics

type table3_row = {
  program : string;
  processes : int;
  trace_bytes : int;
  size_c_bytes : int;
  overhead : float;
  error : float;
}

let table3_row (sy : Pipeline.synthesis) =
  let s = sy.Pipeline.sy_trace.Pipeline.ts_spec in
  let meta = sy.Pipeline.sy_trace.Pipeline.ts_meta in
  let platform = s.Pipeline.platform and impl = s.Pipeline.impl in
  {
    program = s.Pipeline.workload.Siesta_workloads.Registry.name;
    processes = s.Pipeline.nranks;
    trace_bytes = meta.Codec.tm_raw_bytes;
    size_c_bytes = Proxy_ir.size_c_bytes sy.Pipeline.sy_proxy;
    overhead = Codec.meta_overhead meta;
    error =
      counter_error
        ~original:(Pipeline.run_original s ~platform ~impl)
        ~proxy:(Pipeline.run_proxy sy ~platform ~impl);
  }

let mean l = if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
