(* Ablations of the design choices DESIGN.md calls out:
   1. run-length constraint on/off (grammar size);
   2. relative-rank encoding on/off (terminal-table and grammar size);
   3. computation-event clustering threshold sweep (clusters vs error);
   4. main-rule edit-distance clustering on/off (merged main length);
   5. the QP loop-overhead constraint on/off (feasibility of emitted code). *)

open Exp_common
module Merged = Siesta_merge.Merged
module Merge_pipeline = Siesta_merge.Pipeline
module Proxy_search = Siesta_synth.Proxy_search
module Compute_table = Siesta_trace.Compute_table
module Block = Siesta_blocks.Block
module Grammar = Siesta_grammar.Grammar
module Sequitur = Siesta_grammar.Sequitur

let workload = "MG"
let nranks = 64

let trace_streams ?(relative_ranks = true) ?(cluster_threshold = 0.05) () =
  let s = Pipeline.spec ~cluster_threshold ~workload ~nranks () in
  let recorder = Recorder.create ~nranks ~cluster_threshold ~relative_ranks () in
  let program = s.Pipeline.workload.Registry.program ~nranks ~iters:None in
  ignore
    (Engine.run ~platform:s.Pipeline.platform ~impl:s.Pipeline.impl ~nranks
       ~hook:(Recorder.hook recorder) program);
  (s, recorder)

let ablate_rle () =
  heading (Printf.sprintf "Ablation 1: run-length constraint (Sequitur) on %s@%d" workload nranks);
  let _, recorder = trace_streams () in
  let streams = Array.init nranks (Recorder.events recorder) in
  let sizes rle =
    let merged =
      Merge_pipeline.merge_streams
        ~config:{ Merge_pipeline.default_config with rle }
        ~nranks streams
    in
    let entries =
      Array.fold_left (fun acc body -> acc + List.length body) 0 merged.Merged.rules
      + Array.fold_left (fun acc m -> acc + List.length m) 0 merged.Merged.mains
    in
    (entries, Merged.serialized_bytes merged, Array.length merged.Merged.rules)
  in
  let e_on, b_on, r_on = sizes true in
  let e_off, b_off, r_off = sizes false in
  table
    ~header:[ "variant"; "grammar entries"; "rules"; "serialized" ]
    ~rows:
      [
        [ "RLE on (paper)"; string_of_int e_on; string_of_int r_on; Siesta_util.Bytes_fmt.to_string b_on ];
        [ "RLE off (plain Sequitur)"; string_of_int e_off; string_of_int r_off; Siesta_util.Bytes_fmt.to_string b_off ];
      ];
  (* the asymptotic effect on pure loops (the paper's O(log n) -> O(1)) *)
  Printf.printf "\npure loop (a b c d)^n, grammar entries by n:\n";
  let rows =
    List.map
      (fun n ->
        let seq = Array.concat (List.init n (fun _ -> [| 1; 2; 3; 4 |])) in
        [
          string_of_int n;
          string_of_int (Grammar.entry_count (Sequitur.of_seq seq));
          string_of_int (Grammar.entry_count (Sequitur.of_seq ~rle:false seq));
        ])
      [ 16; 256; 4096; 65536 ]
  in
  table ~header:[ "n"; "RLE on (O(1))"; "RLE off (O(log n))" ] ~rows

let ablate_relative_ranks () =
  heading "Ablation 2: relative-rank encoding";
  let measure relative_ranks =
    let _, recorder = trace_streams ~relative_ranks () in
    let streams = Array.init nranks (Recorder.events recorder) in
    let merged = Merge_pipeline.merge_streams ~nranks streams in
    (Array.length merged.Merged.terminals, Merged.serialized_bytes merged)
  in
  let t_on, b_on = measure true in
  let t_off, b_off = measure false in
  table
    ~header:[ "variant"; "global terminals"; "serialized" ]
    ~rows:
      [
        [ "relative ranks (paper)"; string_of_int t_on; Siesta_util.Bytes_fmt.to_string b_on ];
        [ "absolute ranks"; string_of_int t_off; Siesta_util.Bytes_fmt.to_string b_off ];
      ]

let ablate_cluster_threshold () =
  heading "Ablation 3: computation-event clustering threshold";
  let rows =
    List.map
      (fun threshold ->
        let s = Pipeline.spec ~cluster_threshold:threshold ~workload ~nranks () in
        let ts = Pipeline.trace_stage s in
        let traced = Option.get ts.Pipeline.ts_traced in
        let art = Pipeline.synthesize ts in
        let row = Evaluate.table3_row art in
        let ct = Recorder.compute_table traced.Pipeline.recorder in
        [
          Printf.sprintf "%.3f" threshold;
          string_of_int (Compute_table.cluster_count ct);
          Siesta_util.Bytes_fmt.to_string row.Evaluate.size_c_bytes;
          pct row.Evaluate.error;
        ])
      [ 0.005; 0.02; 0.05; 0.2; 0.5 ]
  in
  table ~header:[ "threshold"; "clusters"; "size_C"; "counter error" ] ~rows

let ablate_main_clustering () =
  heading "Ablation 4: main-rule clustering by edit distance (FLASH Sod@64: diverse mains)";
  let s = Pipeline.spec ~workload:"Sod" ~nranks () in
  let recorder = Recorder.create ~nranks () in
  ignore
    (Engine.run ~platform:s.Pipeline.platform ~impl:s.Pipeline.impl ~nranks
       ~hook:(Recorder.hook recorder)
       (s.Pipeline.workload.Registry.program ~nranks ~iters:None));
  let streams = Array.init nranks (Recorder.events recorder) in
  let measure cluster_threshold =
    let merged =
      Merge_pipeline.merge_streams
        ~config:{ Merge_pipeline.default_config with cluster_threshold }
        ~nranks streams
    in
    let entries = Array.fold_left (fun acc m -> acc + List.length m) 0 merged.Merged.mains in
    (Array.length merged.Merged.mains, entries, Merged.serialized_bytes merged)
  in
  let rows =
    List.map
      (fun (label, thr) ->
        let clusters, entries, bytes = measure thr in
        [
          label;
          string_of_int clusters;
          string_of_int entries;
          Siesta_util.Bytes_fmt.to_string bytes;
        ])
      [
        ("no merging across variants (thr 0)", 0.0);
        ("clustered merge, thr 0.35 (paper)", 0.35);
        ("merge everything (thr 1.0)", 1.0);
      ]
  in
  table ~header:[ "variant"; "main clusters"; "main entries"; "serialized" ] ~rows

let ablate_loop_constraint () =
  heading "Ablation 5: the QP loop-overhead constraint x11 >= sum(x1..x9)";
  let s = Pipeline.spec ~workload ~nranks () in
  let traced = Pipeline.trace s in
  let ct = Recorder.compute_table traced.Pipeline.recorder in
  let platform = s.Pipeline.platform in
  let stats loop_constraint =
    let errors = ref [] and infeasible = ref 0 in
    for cid = 0 to Compute_table.cluster_count ct - 1 do
      let sol = Proxy_search.search ~loop_constraint ~platform (Compute_table.centroid ct cid) in
      errors := sol.Proxy_search.error :: !errors;
      match Block.validate_combination sol.Proxy_search.x with
      | Ok () -> ()
      | Error _ -> incr infeasible
    done;
    (Evaluate.mean !errors, !infeasible, Compute_table.cluster_count ct)
  in
  let e_on, i_on, n = stats true in
  let e_off, i_off, _ = stats false in
  table
    ~header:[ "variant"; "mean search error"; "unrealizable combinations" ]
    ~rows:
      [
        [ "constraint on (paper)"; pct e_on; Printf.sprintf "%d/%d" i_on n ];
        [ "constraint off"; pct e_off; Printf.sprintf "%d/%d" i_off n ];
      ]

let run () =
  ablate_rle ();
  ablate_relative_ranks ();
  ablate_cluster_threshold ();
  ablate_main_clustering ();
  ablate_loop_constraint ()
