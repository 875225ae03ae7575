(* Tests for the streaming trace pipeline: SoA buffers, record-time
   interning, online Sequitur, the packed trace representation and the
   hierarchical merge tree — including the equivalence guarantees the
   streamed-by-default pipeline rests on (streamed == batch, any tree
   shape == flat numbering). *)

module E = Siesta_mpi.Engine
module D = Siesta_mpi.Datatype
module Op = Siesta_mpi.Op
module K = Siesta_perf.Kernel
module Event = Siesta_trace.Event
module Soa = Siesta_trace.Soa
module Recorder = Siesta_trace.Recorder
module Trace_io = Siesta_trace.Trace_io
module Grammar = Siesta_grammar.Grammar
module Sequitur = Siesta_grammar.Sequitur
module MPipe = Siesta_merge.Pipeline
module Merged = Siesta_merge.Merged
module Terminal_table = Siesta_merge.Terminal_table
module Pipeline = Siesta.Pipeline
module Codegen_c = Siesta_synth.Codegen_c

let platform = Siesta_platform.Spec.platform_a
let impl = Siesta_platform.Mpi_impl.openmpi

(* ------------------------------------------------------------------ *)
(* SoA buffers and the interner *)

let test_soa_append_get () =
  let b = Soa.create ~capacity:2 () in
  for i = 0 to 999 do
    Soa.append b (i * 3)
  done;
  Alcotest.(check int) "length" 1000 (Soa.length b);
  for i = 0 to 999 do
    if Soa.get b i <> i * 3 then Alcotest.failf "get %d" i
  done;
  Alcotest.(check bool) "oob raises" true
    (match Soa.get b 1000 with exception Invalid_argument _ -> true | _ -> false);
  let sum = ref 0 in
  Soa.iter (fun v -> sum := !sum + v) b;
  Alcotest.(check int) "iter sums" (3 * 999 * 1000 / 2) !sum

let test_soa_array_roundtrip () =
  let a = Array.init 257 (fun i -> (i * 7919) mod 1021) in
  Alcotest.(check bool) "roundtrip" true (Soa.to_array (Soa.of_array a) = a);
  Alcotest.(check int) "empty" 0 (Soa.length (Soa.of_array [||]));
  Alcotest.(check bool) "mem grows with capacity" true
    (Soa.mem_bytes (Soa.of_array a) >= 257 * 8)

let test_intern_dense_codes () =
  let it = Soa.Intern.create () in
  let ev1 = Event.Barrier { comm = 0 } in
  let ev2 = Event.Compute 7 in
  Alcotest.(check int) "first is 0" 0 (Soa.Intern.intern it ev1);
  Alcotest.(check int) "second is 1" 1 (Soa.Intern.intern it ev2);
  Alcotest.(check int) "repeat reuses" 0 (Soa.Intern.intern it ev1);
  Alcotest.(check int) "size" 2 (Soa.Intern.size it);
  Alcotest.(check bool) "defs in code order" true (Soa.Intern.defs it = [| ev1; ev2 |])

(* ------------------------------------------------------------------ *)
(* Online Sequitur: push/finalize against the batch construction *)

let codes_gen =
  QCheck.Gen.(array_size (0 -- 300) (0 -- 15))

let arb_codes = QCheck.make ~print:QCheck.Print.(array int) codes_gen

let prop_push_equals_batch =
  QCheck.Test.make ~count:200 ~name:"online push/finalize equals batch of_seq" arb_codes
    (fun seq ->
      List.for_all
        (fun rle ->
          let b = Sequitur.create ~rle () in
          Array.iter (Sequitur.push b) seq;
          Grammar.equal (Sequitur.finalize b) (Sequitur.of_seq ~rle seq))
        [ true; false ])

(* A single long run under RLE merging visits run-lengths 1..n, so the
   builder's pair-id intern table sees ~n transient (symbol, reps)
   pairs and crosses the compaction watermark (4096 live pair ids)
   many times.  The grammar must come out identical to the batch
   construction regardless of how often the index was rebuilt. *)
let test_compaction_preserves_grammar () =
  let n = 20_000 in
  let seq =
    Array.init n (fun i -> if i mod 5000 = 4999 then 1 + (i / 5000) else 0)
  in
  let b = Sequitur.create ~rle:true () in
  Array.iter (Sequitur.push b) seq;
  Alcotest.(check bool)
    "grammar unchanged across pair-table compactions" true
    (Grammar.equal (Sequitur.finalize b) (Sequitur.of_seq ~rle:true seq));
  (* the watermark is the point: a 20k-element run must not retain a
     pair id per transient run length *)
  let b2 = Sequitur.create ~rle:true () in
  Array.iter (fun _ -> Sequitur.push b2 0) (Array.make n ());
  Alcotest.(check bool)
    "uniform run compresses to a single RLE symbol" true
    (Grammar.equal (Sequitur.finalize b2) (Sequitur.of_seq ~rle:true (Array.make n 0)))

let prop_finalize_midstream_harmless =
  QCheck.Test.make ~count:100 ~name:"mid-stream finalize does not disturb the builder"
    arb_codes (fun seq ->
      let b = Sequitur.create ~rle:true () in
      Array.iteri
        (fun i c ->
          Sequitur.push b c;
          if i mod 50 = 25 then ignore (Sequitur.finalize b))
        seq;
      Grammar.equal (Sequitur.finalize b) (Sequitur.of_seq ~rle:true seq))

(* The property the merge-time canonicalization relies on: Sequitur's
   structure depends only on symbol equality, so construction commutes
   with any injective renaming of the terminal alphabet. *)
let prop_construction_commutes_with_bijection =
  QCheck.Test.make ~count:200
    ~name:"Sequitur construction commutes with terminal bijections"
    (QCheck.make
       ~print:(fun (seq, _) -> QCheck.Print.(array int) seq)
       QCheck.Gen.(
         let* seq = codes_gen in
         let* shift = 1 -- 15 in
         (* an explicit permutation of the 16-symbol alphabet *)
         let sigma = Array.init 16 (fun v -> (v + shift) mod 16) in
         return (seq, sigma)))
    (fun (seq, sigma) ->
      let f v = sigma.(v) in
      List.for_all
        (fun rle ->
          Grammar.equal
            (Grammar.map_terminals f (Sequitur.of_seq ~rle seq))
            (Sequitur.of_seq ~rle (Array.map f seq)))
        [ true; false ])

(* ------------------------------------------------------------------ *)
(* Streamed recorder vs the boxed reference *)

let ring ctx =
  let r = E.rank ctx and n = E.size ctx in
  for _ = 1 to 4 do
    E.compute ctx (K.compute_bound ~label:"k" ~flops:1e5 ~div_frac:0.0);
    let rq = E.irecv ctx ~src:((r + n - 1) mod n) ~tag:2 ~dt:D.Double ~count:100 in
    E.send ctx ~dest:((r + 1) mod n) ~tag:2 ~dt:D.Double ~count:100;
    E.wait ctx rq;
    E.allreduce ctx (E.comm_world ctx) ~dt:D.Double ~count:1 ~op:Op.Sum
  done

let record mode =
  let r = Recorder.create ~nranks:4 ~mode () in
  ignore (E.run ~platform ~impl ~nranks:4 ~hook:(Recorder.hook r) ring);
  r

let test_recorder_modes_same_events () =
  let s = record Recorder.Streamed and b = record Recorder.Boxed in
  for rank = 0 to 3 do
    if Recorder.events s rank <> Recorder.events b rank then
      Alcotest.failf "rank %d streams differ" rank
  done;
  Alcotest.(check int) "total events" (Recorder.total_events b) (Recorder.total_events s);
  Alcotest.(check int) "raw bytes" (Recorder.raw_trace_bytes b) (Recorder.raw_trace_bytes s)

let test_recorder_online_grammars_match_batch () =
  let s = record Recorder.Streamed in
  let gs = Recorder.online_grammars s in
  for rank = 0 to 3 do
    let codes = Soa.to_array (Recorder.codes s rank) in
    if not (Grammar.equal gs.(rank) (Sequitur.of_seq ~rle:true codes)) then
      Alcotest.failf "rank %d online grammar differs from batch" rank
  done

let test_recorder_boxed_rejects_streamed_accessors () =
  let b = record Recorder.Boxed in
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "boxed recorder accepted a streamed accessor")
    [
      (fun () -> ignore (Recorder.codes b 0));
      (fun () -> ignore (Recorder.event_defs b));
      (fun () -> ignore (Recorder.online_grammars b));
    ]

let test_merge_recorder_mode_equivalence () =
  let ms = MPipe.merge_recorder (record Recorder.Streamed) in
  let mb = MPipe.merge_recorder (record Recorder.Boxed) in
  Merged.validate ms;
  Alcotest.(check bool) "streamed merge equals boxed merge" true (Merged.equal ms mb)

(* ------------------------------------------------------------------ *)
(* Hierarchical merge tree: shape invariance *)

(* Random SPMD-ish bundles (mirrors test_merge's generator): mostly
   identical ranks with periodic variants, which is what exercises both
   the dedup (shared bodies) and append (novel bodies) sides of a merge
   node. *)
let ev_send tag = Event.Send { rel_peer = 1; tag; dt = D.Double; count = 64; comm = 0 }
let ev_compute c = Event.Compute c

let bundle_gen =
  QCheck.Gen.(
    let* nranks = 2 -- 12 in
    let* base_len = 1 -- 12 in
    let* reps = 1 -- 4 in
    let* variant_period = 2 -- 5 in
    let* base =
      array_size (return base_len)
        (oneof [ map ev_send (0 -- 3); map ev_compute (0 -- 3) ])
    in
    let body = Array.concat (List.init reps (fun _ -> base)) in
    return
      ( nranks,
        Array.init nranks (fun r ->
            if r mod variant_period = 0 then Array.append body [| ev_send 999 |] else body) ))

let arb_bundle =
  QCheck.make
    ~print:(fun (n, streams) ->
      Printf.sprintf "%d ranks, %d events/rank" n (Array.length streams.(0)))
    bundle_gen

let prop_merge_tree_shape_invariant =
  (* the tree's associativity guarantee: any arity and any pool size
     produce the identical Merged.t, and it is lossless per rank *)
  QCheck.Test.make ~count:40 ~name:"merge tree identical across arities and pool sizes"
    arb_bundle (fun (nranks, streams) ->
      let merge ~arity ~domains =
        MPipe.merge_streams
          ~config:{ MPipe.default_config with MPipe.arity; domains = Some domains }
          ~nranks streams
      in
      let reference = merge ~arity:2 ~domains:1 in
      Merged.validate reference;
      let seqs = Terminal_table.sequences (Terminal_table.build streams) in
      Array.iteri
        (fun r seq ->
          if Merged.expand_for_rank reference r <> seq then Alcotest.failf "lossy at rank %d" r)
        seqs;
      List.for_all
        (fun (arity, domains) -> Merged.equal reference (merge ~arity ~domains))
        [ (2, 2); (2, 4); (3, 1); (3, 2); (4, 2); (8, 4); (64, 2) ])

(* ------------------------------------------------------------------ *)
(* Packed trace text format (v2) *)

let prop_packed_text_roundtrip =
  QCheck.Test.make ~count:60 ~name:"packed traces round-trip through the v2 text format"
    (QCheck.make
       ~print:(fun (n, _) -> Printf.sprintf "%d ranks" n)
       QCheck.Gen.(
         let* nranks = 1 -- 6 in
         let* streams =
           array_size (return nranks) (array_size (0 -- 40) Test_trace.random_event_gen)
         in
         return (nranks, streams)))
    (fun (nranks, streams) ->
      let pk = Trace_io.to_packed { Trace_io.nranks; streams; centroids = [||] } in
      let s = Trace_io.to_string_packed pk in
      String.length s >= 15
      && String.sub s 0 15 = "siesta-trace v2"
      && (Trace_io.of_packed (Trace_io.of_string_packed s)).Trace_io.streams = streams)

let test_v2_loader_accepts_v1 () =
  let t =
    { Trace_io.nranks = 2; streams = [| [| ev_send 1 |]; [| ev_send 1; ev_compute 0 |] |];
      centroids = [||] }
  in
  let pk = Trace_io.of_string_packed (Trace_io.to_string t) in
  Alcotest.(check bool) "v1 text loads as packed" true
    ((Trace_io.of_packed pk).Trace_io.streams = t.Trace_io.streams)

let test_v2_truncation_clean_errors () =
  let streams = Array.make 3 (Array.init 50 (fun i -> ev_compute (i mod 5))) in
  let full = Trace_io.to_string_packed (Trace_io.to_packed { Trace_io.nranks = 3; streams; centroids = [||] }) in
  (* cut inside the chunked section at several points: always a clean
     Trace_io failure, never a leaked Scanf/Invalid_argument *)
  List.iter
    (fun frac ->
      let len = String.length full * frac / 10 in
      match Trace_io.of_string_packed (String.sub full 0 len) with
      | exception Failure msg ->
          if String.length msg < 9 || String.sub msg 0 9 <> "Trace_io:" then
            Alcotest.failf "unprefixed failure: %s" msg
      | exception e -> Alcotest.failf "leaked %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "accepted truncated v2 input")
    [ 3; 5; 7; 9 ];
  (* a declared-vs-got chunk mismatch names the rank and the counts *)
  let truncated =
    "siesta-trace v2\nnranks 1\ncompute-table 0\nevents 1\nC:0\nrank 0 4\nchunk 4\n0 0 0\n"
  in
  (match Trace_io.of_string_packed truncated with
  | exception Failure msg ->
      Alcotest.(check bool) (Printf.sprintf "pointed message: %s" msg) true
        (String.length msg >= 9 && String.sub msg 0 9 = "Trace_io:")
  | _ -> Alcotest.fail "accepted short chunk");
  (* out-of-range codes are rejected, not decoded into garbage events *)
  let bad_code =
    "siesta-trace v2\nnranks 1\ncompute-table 0\nevents 1\nC:0\nrank 0 1\nchunk 1\n7\n"
  in
  (match Trace_io.of_string_packed bad_code with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "accepted out-of-range code")

let contains_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_store_blob_rejected_by_text_loader () =
  match Trace_io.of_string_packed "SSB1\x02\x05trace..." with
  | exception Failure msg ->
      Alcotest.(check bool) (Printf.sprintf "mentions the store codec: %s" msg) true
        (contains_substring ~needle:"store" (String.lowercase_ascii msg))
  | _ -> Alcotest.fail "text loader accepted a binary blob"

(* ------------------------------------------------------------------ *)
(* End to end: streamed pipeline == boxed pipeline, down to the C *)

let test_end_to_end_streamed_equals_boxed () =
  let s = Pipeline.spec ~iters:3 ~seed:42 ~workload:"CG" ~nranks:8 () in
  let streamed = Pipeline.synthesize (Pipeline.trace_stage ~mode:Recorder.Streamed s) in
  let boxed = Pipeline.synthesize (Pipeline.trace_stage ~mode:Recorder.Boxed s) in
  Alcotest.(check bool) "merged programs equal" true
    (Merged.equal streamed.Pipeline.sy_merged boxed.Pipeline.sy_merged);
  (* both sides above merge one packed trace; the boxed recorder's own
     offline merge builds its terminal numbering independently *)
  let boxed_recorder = (Option.get boxed.Pipeline.sy_trace.Pipeline.ts_traced).Pipeline.recorder in
  Alcotest.(check bool) "equals the offline merge of the boxed recorder" true
    (Merged.equal streamed.Pipeline.sy_merged (MPipe.merge_recorder boxed_recorder));
  Alcotest.(check string) "byte-identical C"
    (Codegen_c.generate boxed.Pipeline.sy_proxy)
    (Codegen_c.generate streamed.Pipeline.sy_proxy)

let test_packed_memory_scales_with_defs () =
  (* the streaming claim at unit scale: the packed trace's GC-visible
     footprint is the definition table, so quadrupling the event count
     leaves defs unchanged while the boxed materialization grows *)
  let run iters =
    let r = Recorder.create ~nranks:4 ~mode:Recorder.Streamed () in
    ignore
      (E.run ~platform ~impl ~nranks:4 ~hook:(Recorder.hook r) (fun ctx ->
           for _ = 1 to iters do
             ring ctx
           done));
    Trace_io.pack r
  in
  let small = run 5 and large = run 20 in
  Alcotest.(check int) "defs stable under 4x events"
    (Array.length small.Trace_io.p_defs)
    (Array.length large.Trace_io.p_defs);
  Alcotest.(check bool) "events actually grew 4x" true
    (Trace_io.packed_total_events large > 3 * Trace_io.packed_total_events small)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_push_equals_batch;
      prop_finalize_midstream_harmless;
      prop_construction_commutes_with_bijection;
      prop_merge_tree_shape_invariant;
      prop_packed_text_roundtrip;
    ]

let suite =
  qcheck_tests
  @ [
      ("soa append/get/iter", `Quick, test_soa_append_get);
      ("soa array roundtrip", `Quick, test_soa_array_roundtrip);
      ("interner assigns dense codes", `Quick, test_intern_dense_codes);
      ("pair-table compaction preserves grammar", `Quick, test_compaction_preserves_grammar);
      ("recorder modes record identical events", `Quick, test_recorder_modes_same_events);
      ("online grammars match batch Sequitur", `Quick, test_recorder_online_grammars_match_batch);
      ("boxed recorder rejects streamed accessors", `Quick,
        test_recorder_boxed_rejects_streamed_accessors);
      ("merge_recorder equivalent across modes", `Quick, test_merge_recorder_mode_equivalence);
      ("v2 loader accepts v1 text", `Quick, test_v2_loader_accepts_v1);
      ("v2 truncation gives clean errors", `Quick, test_v2_truncation_clean_errors);
      ("text loader rejects binary store blobs", `Quick,
        test_store_blob_rejected_by_text_loader);
      ("end-to-end streamed equals boxed", `Slow, test_end_to_end_streamed_equals_boxed);
      ("packed memory scales with definitions", `Quick, test_packed_memory_scales_with_defs);
    ]
