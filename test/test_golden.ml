(* Golden proxy.c content hashes.

   Every registry workload is synthesized without a store at a small
   valid rank count and its default iteration count, at factors 1 and
   8, and the MD5 of the generated C is pinned.  Any change to tracing, grammar construction, merging, the
   QP proxy search or code generation that alters a single emitted byte
   fails here, naming the workload and factor; a deliberate output
   change must update the table in the same commit. *)

module Pipeline = Siesta.Pipeline
module Registry = Siesta_workloads.Registry
module Codegen_c = Siesta_synth.Codegen_c
module Hash = Siesta_store.Hash

(* (workload, ranks, factor, MD5 of proxy.c) *)
let golden =
  [
    ("BT", 9, 1.0, "d5ecb658e2b36dd7d47014c55a433afb");
    ("BT", 9, 8.0, "d76a6aa074eb5221d30b50d21bb573c5");
    ("BT-IO", 9, 1.0, "f2eb8dc2447bcd13f91728ec74ddbe35");
    ("BT-IO", 9, 8.0, "cea9de47f64067148d8ca44eeb494260");
    ("CG", 8, 1.0, "f16888d548f20d4724b50aef9dae8b68");
    ("CG", 8, 8.0, "697a1cfad4e2d9e010b39722de88bc29");
    ("IS", 8, 1.0, "517db5d2d96f2bf1b1fb5faac66187a1");
    ("IS", 8, 8.0, "beaec7c6b72d03cde9ac3be26cc0c374");
    ("MG", 8, 1.0, "a8bc755ba90898f71c62203d7d939744");
    ("MG", 8, 8.0, "d124f617aa6a398c54dbf93bbd5cb2d3");
    ("SP", 9, 1.0, "87922b6f4cd9b36d5dd34ce4ebd5c39a");
    ("SP", 9, 8.0, "982494cbbc5ecea6be603a049bdd317e");
    ("Sweep3d", 8, 1.0, "854d95787b32d96da5c320c2ad839d38");
    ("Sweep3d", 8, 8.0, "310fdb3874e1bd83a4675a7d8aa1daa2");
    ("StirTurb", 8, 1.0, "afd0fc7de28514d76e7225d0e93c78fc");
    ("StirTurb", 8, 8.0, "10b528cd30337db5316b311704f54425");
    ("Sod", 8, 1.0, "c15e3ba0f98c4bff1cc6800479452e1b");
    ("Sod", 8, 8.0, "06c2004dd4caed474a0ec976fb49419d");
    ("Sedov", 8, 1.0, "14537f4b46523e78f7209c6d6e1b840e");
    ("Sedov", 8, 8.0, "79fea00d68a3137bb9665ad9c2026c6c");
  ]

let proxy_hash ?cache ?store ~workload ~nranks ~factor () =
  let s = Pipeline.spec ~workload ~nranks () in
  let sy = Pipeline.synthesize_spec ?cache ?store ~factor s in
  Hash.content_hash (Codegen_c.generate sy.Pipeline.sy_proxy)

let check_table hash_of =
  let bad =
    List.filter_map
      (fun (workload, nranks, factor, want) ->
        let got = hash_of ~workload ~nranks ~factor in
        if got = want then None
        else Some (Printf.sprintf "(%S, %d, %g, %S)" workload nranks factor got))
      golden
  in
  if bad <> [] then
    Alcotest.failf "proxy.c changed for %d case(s); actual:\n%s" (List.length bad)
      (String.concat ";\n" bad)

let test_table_covers_registry () =
  List.iter
    (fun (w : Registry.t) ->
      List.iter
        (fun factor ->
          if
            not
              (List.exists
                 (fun (name, _, f, _) -> name = w.Registry.name && f = factor)
                 golden)
          then Alcotest.failf "no golden hash for %s at factor %g" w.Registry.name factor)
        [ 1.0; 8.0 ])
    Registry.all

let test_golden_hashes () =
  check_table (fun ~workload ~nranks ~factor -> proxy_hash ~workload ~nranks ~factor ())

(* The store must not change a byte either: a cold run (filling an empty
   store) and the warm run replaying it both emit the pinned C. *)
let test_golden_hashes_cached () =
  let root = Filename.temp_file "siesta_golden" ".d" in
  Sys.remove root;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () ->
      let store = Siesta_store.Store.open_ ~root () in
      let cached () =
        check_table (fun ~workload ~nranks ~factor ->
            proxy_hash ~cache:true ~store ~workload ~nranks ~factor ())
      in
      cached ();
      cached ())

let suite =
  [
    Alcotest.test_case "table covers every registry workload" `Quick test_table_covers_registry;
    Alcotest.test_case "proxy.c hashes unchanged" `Quick test_golden_hashes;
    Alcotest.test_case "cold and warm cached runs match" `Quick test_golden_hashes_cached;
  ]
