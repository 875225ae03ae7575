(** Error metrics of the evaluation section.

    All errors are fractions (multiply by 100 for the paper's percent
    figures). *)

val time_error : estimated:float -> original:float -> float
(** |estimated - original| / original — the mean-percentage-error core of
    Figs. 6–9. *)

val counter_error :
  original:Siesta_mpi.Engine.result -> proxy:Siesta_mpi.Engine.result -> float
(** The "Error" column of Table 3: the relative error of each of the six
    counter metrics, averaged over metrics and processes, between the
    proxy's computation and the original's. *)

val per_metric_errors :
  original:Siesta_mpi.Engine.result ->
  proxy:Siesta_mpi.Engine.result ->
  (Siesta_perf.Counters.metric * float) list
(** The same comparison broken down by metric (each averaged over
    processes), in {!Siesta_perf.Counters.all_metrics} order. *)

type table3_row = {
  program : string;
  processes : int;
  trace_bytes : int;
  size_c_bytes : int;
  overhead : float;
  error : float;
}

val table3_row : Pipeline.synthesis -> table3_row
(** Trace size and overhead come from the stored run measurements;
    replays the original and the proxy on the generation platform to
    score the counter error (runs are deterministic per seed). *)

val mean : float list -> float
