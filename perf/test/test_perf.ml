(** Self-test of the benchmark at 1/100 scale: runs perf/main.exe the
    way a user would and checks the ledger it writes. *)

open Perf
module M = Metrics

let scale = "0.01"

(* Run main.exe; returns the ledger it wrote. A failed correctness
   check (wrong bytes, a traced run that changed a virtual row, phase
   self-times that do not sum to the root durations) exits non-zero. *)
let run ~name args =
  let json = name ^ ".json" in
  let code =
    Sys.command
      (Filename.quote_command "../main.exe" ~stdout:(name ^ ".log")
         ([ "--scale"; scale; "--json"; json ] @ args))
  in
  Alcotest.(check int) (name ^ " exits 0") 0 code;
  M.parse (M.read_file json)

let traced = lazy (run ~name:"seed42-traced" [ "--seed"; "42"; "--trace" ])

let untraced = lazy (run ~name:"seed42" [ "--seed"; "42" ])

let other_seed = lazy (run ~name:"seed7" [ "--seed"; "7" ])

let rows j = List.map M.row_of_json (M.to_list (M.member "rows" j))

let deterministic_e2e j =
  List.filter_map
    (fun (r : M.row) ->
      if r.kind = M.E2e && M.deterministic r then Some (M.to_string (M.row_json r))
      else None)
    (rows j)

let streams j =
  match M.member "streams" j with
  | M.Obj l -> List.map (fun (w, s) -> (w, M.to_str s)) l
  | _ -> []

let test_same_seed () =
  (* the traced invocation's end-to-end rows come from its own untraced
     repetitions: two separate processes per workload against these *)
  Alcotest.(check (list string)) "virtual rows byte-identical"
    (deterministic_e2e (Lazy.force traced))
    (deterministic_e2e (Lazy.force untraced))

let test_seeds_differ () =
  let a = streams (Lazy.force untraced) and b = streams (Lazy.force other_seed) in
  Alcotest.(check int) "five workloads" 5 (List.length a);
  List.iter
    (fun (w, s) ->
      Alcotest.(check bool) (w ^ " op stream differs") true (List.assoc w b <> s))
    a

(* main.exe itself asserts, per workload, that the traced run's virtual
   end-to-end rows equal the untraced run's and that phase self-times
   sum exactly to root durations; a traced run that exits 0 and emits
   layer rows has passed both. *)
let test_traced_run () =
  let layer =
    List.filter (fun (r : M.row) -> r.kind = M.Layer) (rows (Lazy.force traced))
  in
  Alcotest.(check bool) "layer rows present" true (layer <> [])

let bench_names section =
  let j = M.parse (M.read_file "../../BENCHMARK.json") in
  List.map (fun m -> M.to_str (M.member "name" m)) (M.to_list (M.member section j))

let test_names () =
  let e2e = bench_names "end_to_end" and layer = bench_names "per_layer" in
  let sorted = List.sort_uniq compare in
  let rs = rows (Lazy.force traced) in
  List.iter
    (fun (r : M.row) ->
      Alcotest.(check bool)
        (r.metric ^ " is listed in BENCHMARK.json or ledger-only")
        true
        (List.mem r.metric e2e || List.mem r.metric layer || M.ledger_only r.metric))
    rs;
  List.iter
    (fun w ->
      let emitted kind =
        sorted
          (List.filter_map
             (fun (r : M.row) ->
               if r.workload = w && r.kind = kind && not (M.ledger_only r.metric)
               then Some r.metric
               else None)
             rs)
      in
      Alcotest.(check (list string)) (w ^ " emits every end_to_end metric")
        (sorted e2e) (emitted M.E2e);
      Alcotest.(check (list string)) (w ^ " emits every per_layer metric")
        (sorted layer) (emitted M.Layer))
    (List.map fst Workloads.all)

let () =
  Alcotest.run "perf"
    [ ( "ledger",
        [ Alcotest.test_case "same seed gives byte-identical virtual rows" `Quick
            test_same_seed;
          Alcotest.test_case "seeds 42 and 7 draw different op streams" `Quick
            test_seeds_differ;
          Alcotest.test_case "traced run passes its own checks" `Quick
            test_traced_run;
          Alcotest.test_case "metric names match BENCHMARK.json" `Quick test_names
        ] ) ]
