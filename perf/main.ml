(** perf/main.exe — the repo's regression benchmark.

    {v
    main.exe [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
             [--json FILE] [--scale F]
    main.exe compare BASE.json NEW.json    (run from the repo root)
    v}

    Each repetition of a workload runs in a child process of its own,
    so peak RSS is per workload and process-global state (vkey slots,
    simulated file names, socket listeners) never leaks from one
    repetition into the next. Repetitions continue until [--seconds]
    have passed and at least [min_reps] have run. Deterministic rows
    (virtual time, counts) must agree exactly across repetitions; host
    rows report the median. The last line of standard output is one
    JSON object: correct, attempted, failed, metrics. The process
    exits non-zero when a correctness check fails. *)

open Perf
module M = Metrics
module W = Workloads

(* ---- One repetition (child side) --------------------------------------- *)

type child = {
  rows : M.row list;
  slices : float list;  (** host ns per op of each slice of the measured phase *)
  attempted : int;
  failed : int;
  wrong : int;
  errors : string list;
  stream : int;
}

let us ns = float_of_int ns /. 1e3

(* Repetitions per workload, at the least; a traced run counts pairs. *)
let min_reps = 3

(* Host CPU time per op: the 10th percentile of the measured phase's
   slice costs (see [Workloads.Clock]), pooled over every repetition of
   the run. *)
let host_ns_per_op slices = M.fpercentile slices 10.0

let e2e_rows workload (o : W.outcome) =
  let r ?(note = "") clock metric unit_ v =
    M.row ~note ~workload ~kind:M.E2e ~clock metric unit_ v
  in
  let mean name lat =
    let n = Array.length lat in
    let sum = Array.fold_left ( + ) 0 lat in
    r ~note:(Printf.sprintf "n=%d" n) M.Virtual name "us"
      (if n = 0 then 0.0 else float_of_int sum /. float_of_int n /. 1e3)
  in
  let pct name lat p =
    let n = Array.length lat in
    let p = if p > 50.0 then M.tail_pct n else p in
    let note =
      if p > 50.0 then Printf.sprintf "p%g of n=%d, %d beyond" p n (M.beyond n p)
      else Printf.sprintf "n=%d" n
    in
    r ~note M.Virtual name "us" (us (M.percentile lat p))
  in
  let t = o.tally in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  [ r M.Virtual "throughput_kops" "kops" o.throughput_kops;
    mean "get_mean_us" o.get_lat; pct "get_p50_us" o.get_lat 50.0;
    pct "get_p999_us" o.get_lat 99.9; mean "set_mean_us" o.set_lat;
    pct "set_p50_us" o.set_lat 50.0; pct "set_p999_us" o.set_lat 99.9;
    r ~note:(Printf.sprintf "%d of %d gets" t.hits t.gets) M.Count "hit_ratio"
      "ratio" (ratio t.hits t.gets);
    r M.Count "fail_frac" "ratio" (ratio t.failed t.ops);
    r M.Count "space_amp" "ratio" o.space_amp ]
  @ List.map (fun (metric, u, clock, v, note) -> r ~note clock metric u v) o.extra
  @ [ r M.Host "setup_s" "s" o.setup_s;
      r M.Host "host_ns_per_op" "ns" (host_ns_per_op o.measure.slices) ]

let run_child workload ~seed ~scale ~traced =
  let f = List.assoc workload W.all in
  let o = f { W.seed; scale; traced } in
  let rows =
    e2e_rows workload o
    @ [ M.row ~workload ~kind:M.E2e ~clock:M.Host "rss_peak_mb" "MB"
          (M.rss_peak_mb ()) ]
    @ o.layers
  in
  let t = o.tally in
  { rows; slices = o.measure.slices; attempted = t.ops; failed = t.failed;
    wrong = t.wrong;
    errors = List.rev_append t.errors o.errors; stream = t.stream }

(* ---- Repetitions (parent side) -------------------------------------------- *)

let spawn_child ~workload ~seed ~scale ~traced : child =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--child"; "--workload"; workload; "--seed"; string_of_int seed;
      "--scale"; Printf.sprintf "%h" scale ]
    @ if traced then [ "--trace"; "1" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let res =
    try Some (Marshal.from_channel ic : child)
    with End_of_file | Failure _ -> None
  in
  close_in ic;
  match (Unix.waitpid [] pid, res) with
  | (_, Unix.WEXITED 0), Some c -> c
  | _ -> failwith (Printf.sprintf "%s: repetition process failed" workload)

type summary = {
  s_rows : M.row list;
  s_attempted : int;
  s_failed : int;
  s_errors : string list;
  s_stream : int;
}

(* Fold repetitions: deterministic rows must match bit for bit, host
   rows become the median of their samples. *)
let fold_reps workload (reps : child list) =
  let errors = ref [] in
  let first = List.hd reps in
  let rows =
    List.map
      (fun (r : M.row) ->
        let same =
          List.map
            (fun c ->
              match List.find_opt (fun (x : M.row) -> x.metric = r.metric) c.rows with
              | Some x -> x.value
              | None -> nan)
            reps
        in
        if M.deterministic r then begin
          if List.exists (fun v -> not (Float.equal v r.value)) same then
            errors :=
              Printf.sprintf "%s: %s differs between repetitions" workload r.metric
              :: !errors;
          r
        end
        else { r with value = M.median same; samples = same })
      first.rows
  in
  List.iter
    (fun c ->
      if c.stream <> first.stream then
        errors := (workload ^ ": op stream differs between repetitions") :: !errors)
    reps;
  { s_rows = rows; s_attempted = first.attempted;
    s_failed = first.failed;
    s_errors =
      List.rev !errors
      @ List.concat_map (fun c -> c.errors) reps
      @ List.concat_map
          (fun c ->
            if c.wrong > 0 then [ Printf.sprintf "%s: %d wrong values" workload c.wrong ]
            else [])
          reps;
    s_stream = first.stream }

let is_kind k (r : M.row) = r.kind = k

(* Run one workload to the contract: untraced repetitions give the
   end-to-end rows; with [traced], each untraced repetition is paired
   with a traced one, which gives the layer rows and must reproduce the
   untraced run's virtual rows exactly. *)
let run_workload ~workload ~seed ~scale ~seconds ~traced =
  let t0 = Unix.gettimeofday () in
  let rec loop n u tr =
    if n >= min_reps && Unix.gettimeofday () -. t0 >= seconds then
      (List.rev u, List.rev tr)
    else
      let c = spawn_child ~workload ~seed ~scale ~traced:false in
      let tr =
        if traced then spawn_child ~workload ~seed ~scale ~traced:true :: tr
        else tr
      in
      loop (n + 1) (c :: u) tr
  in
  let u, tr = loop 0 [] [] in
  let su = fold_reps workload u in
  let su =
    let pooled = host_ns_per_op (List.concat_map (fun c -> c.slices) u) in
    { su with
      s_rows =
        List.map
          (fun (r : M.row) ->
            if r.metric = "host_ns_per_op" then { r with value = pooled } else r)
          su.s_rows }
  in
  if not traced then su
  else begin
    let st = fold_reps workload tr in
    let e2e = List.filter (is_kind M.E2e) su.s_rows in
    let mismatches =
      List.filter_map
        (fun (r : M.row) ->
          if not (M.deterministic r) then None
          else
            match
              List.find_opt (fun (x : M.row) -> x.metric = r.metric && x.kind = M.E2e)
                st.s_rows
            with
            | Some x when Float.equal x.value r.value -> None
            | _ ->
              Some
                (Printf.sprintf "%s: traced run changed %s" workload r.metric))
        e2e
    in
    let host_ns rs =
      (List.find (fun (x : M.row) -> x.metric = "host_ns_per_op") rs).samples
    in
    let overhead =
      let ratios = List.map2 ( /. ) (host_ns st.s_rows) (host_ns su.s_rows) in
      { (M.row ~workload ~kind:M.Layer ~clock:M.Host "telemetry.host_overhead"
           "ratio" (M.median ratios))
        with samples = ratios }
    in
    { su with
      s_rows = e2e @ List.filter (is_kind M.Layer) st.s_rows @ [ overhead ];
      s_errors = su.s_errors @ st.s_errors @ mismatches }
  end

(* ---- Ledger files ------------------------------------------------------------ *)

(* One JSON object, one row per line, so two ledgers diff row by row. *)
let ledger_text ~seed ~traced (results : (string * summary) list) =
  let field k v = M.json_string k ^ ": " ^ M.to_string v in
  let rows = List.concat_map (fun (_, s) -> List.map M.row_json s.s_rows) results in
  String.concat ",\n"
    [ "{" ^ field "model_fingerprint" (M.Str (M.model_fingerprint ()));
      field "seed" (M.Num (float_of_int seed));
      field "traced" (M.Bool traced);
      field "streams"
        (M.Obj
           (List.map
              (fun (w, s) -> (w, M.Str (Printf.sprintf "%016x" s.s_stream)))
              results));
      "\"rows\": [\n  " ^ String.concat ",\n  " (List.map M.to_string rows) ^ "\n]}\n" ]

(* ---- compare ------------------------------------------------------------------ *)

type verdict = Better | Same | Worse | Unresolved | Recalibrated | Reseeded

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Recalibrated -> "recalibrated"
  | Reseeded -> "reseeded"

(* Bounds come from BENCHMARK.json: [(name, (lower_is_better, bound))]. *)
let read_bounds path =
  let j = M.parse (M.read_file path) in
  List.map
    (fun m ->
      ( M.to_str (M.member "name" m),
        (M.to_str (M.member "better" m) = "lower", M.to_num (M.member "bound" m)) ))
    (M.to_list (M.member "end_to_end" j))

(* Direction from BENCHMARK.json; the ledger-only rows are rates
   (higher is better) or latencies and failure shares (lower). *)
let lower_better bounds metric =
  match List.assoc_opt metric bounds with
  | Some (lower, _) -> lower
  | None ->
    not
      (List.exists
         (fun suffix -> String.ends_with ~suffix metric)
         [ "_kops"; "_kops_at_slo" ])

(* Deterministic rows compare exactly: the same seed and model give
   the same value bit for bit, so any change is real; under another
   seed or model they are not compared. Host rows use the benchmark's
   bound; when the spread between repetitions is wider than the bound
   the verdict is unresolved, unless every new repetition beats every
   base repetition. *)
let judge ~bounds ~same_model ~same_seed (b : M.row) (n : M.row) =
  let lower = lower_better bounds b.metric in
  let worse_by = if lower then n.value -. b.value else b.value -. n.value in
  if M.deterministic b then
    if not same_model then Recalibrated
    else if not same_seed then Reseeded
    else if Float.equal b.value n.value then Same
    else if worse_by > 0.0 then Worse
    else Better
  else
    let bound = match List.assoc_opt b.metric bounds with Some (_, x) -> x | None -> 0.1 in
    let spread (r : M.row) =
      match r.samples with
      | [] | [ _ ] -> 0.0
      | xs ->
        let q1, q3 = M.quartiles xs in
        (q3 -. q1) /. Float.abs (M.median xs)
    in
    let rel = worse_by /. Float.abs b.value in
    let all_better =
      b.samples <> [] && n.samples <> []
      && List.for_all
           (fun x ->
             List.for_all (fun y -> if lower then x < y else x > y) b.samples)
           n.samples
    in
    if Float.max (spread b) (spread n) > bound then
      if all_better then Better else Unresolved
    else if rel > bound then Worse
    else if rel < -.bound then Better
    else Same

let compare_ledgers ~bench base_path new_path =
  let load p =
    let j = M.parse (M.read_file p) in
    ( M.to_str (M.member "model_fingerprint" j),
      M.to_num (M.member "seed" j),
      List.map M.row_of_json (M.to_list (M.member "rows" j)) )
  in
  let bounds = read_bounds bench in
  let fb, sb, base = load base_path and fn, sn, next = load new_path in
  let same_model = fb = fn and same_seed = Float.equal sb sn in
  if not same_model then
    Printf.printf
      "model fingerprints differ (%s vs %s): virtual and count rows are \
       recalibrated, not compared\n"
      fb fn
  else if not same_seed then
    Printf.printf
      "seeds differ (%s vs %s): virtual and count rows are reseeded, not \
       compared\n"
      (M.json_number sb) (M.json_number sn);
  Printf.printf "%-15s %-22s %14s %14s %11s  %s\n" "workload" "metric" "base" "new"
    "delta" "verdict";
  let worse = ref 0 in
  List.iter
    (fun (b : M.row) ->
      if b.kind = M.E2e then
        match
          List.find_opt
            (fun (n : M.row) -> n.workload = b.workload && n.metric = b.metric)
            next
        with
        | None -> Printf.printf "%-15s %-22s missing in NEW\n" b.workload b.metric
        | Some n ->
          let v = judge ~bounds ~same_model ~same_seed b n in
          if v = Worse then incr worse;
          Printf.printf "%-15s %-22s %14s %14s %+10.2f%%  %s\n" b.workload b.metric
            (M.json_number b.value) (M.json_number n.value)
            (if b.value = 0.0 then 0.0 else 100.0 *. (n.value -. b.value) /. b.value)
            (verdict_name v))
    base;
  if !worse > 0 then exit 1

(* ---- Command line -------------------------------------------------------------- *)

let () =
  Printexc.register_printer (function
    | Vm.Thread_failure (name, e) ->
      Some (Printf.sprintf "thread %s failed: %s" name (Printexc.to_string e))
    | _ -> None);
  let argv = Array.to_list Sys.argv |> List.tl in
  match argv with
  | [ "compare"; base; next ] -> compare_ledgers ~bench:"BENCHMARK.json" base next
  | "compare" :: _ ->
    prerr_endline "usage: main.exe compare BASE.json NEW.json";
    exit 2
  | _ ->
    let workload = ref None and seed = ref 42 and seconds = ref 0.0 in
    let trace = ref false and json = ref None and scale = ref 1.0 in
    let child = ref false in
    let rec parse = function
      | "--workload" :: w :: tl -> workload := Some w; parse tl
      | "--seed" :: n :: tl -> seed := int_of_string n; parse tl
      | "--seconds" :: s :: tl -> seconds := float_of_string s; parse tl
      | "--trace" :: ("0" | "1" as v) :: tl -> trace := v = "1"; parse tl
      | "--trace" :: tl -> trace := true; parse tl
      | "--json" :: f :: tl -> json := Some f; parse tl
      | "--scale" :: f :: tl -> scale := float_of_string f; parse tl
      | "--child" :: tl -> child := true; parse tl
      | [] -> ()
      | a :: _ -> Printf.eprintf "unknown argument %s\n" a; exit 2
    in
    parse argv;
    (match !workload with
     | Some w when not (List.mem_assoc w W.all) ->
       Printf.eprintf "unknown workload %s (one of: %s)\n" w
         (String.concat ", " (List.map fst W.all));
       exit 2
     | _ -> ());
    (* Telemetry is pinned here, never inherited from the environment;
       a traced repetition switches it on for its measured phase only. *)
    Telemetry.Control.set_enabled false;
    Telemetry.Span.set_sampling 0;
    if !child then begin
      (* stray prints from the program must not corrupt the result pipe *)
      let out = Unix.out_channel_of_descr (Unix.dup Unix.stdout) in
      Unix.dup2 Unix.stderr Unix.stdout;
      let c =
        run_child (Option.get !workload) ~seed:!seed ~scale:!scale ~traced:!trace
      in
      Marshal.to_channel out c [];
      close_out out
    end
    else begin
      let names = match !workload with Some w -> [ w ] | None -> List.map fst W.all in
      let results =
        List.map
          (fun w ->
            let s =
              run_workload ~workload:w ~seed:!seed ~scale:!scale ~seconds:!seconds
                ~traced:!trace
            in
            List.iter (fun r -> print_endline (M.render r)) s.s_rows;
            List.iter (fun e -> Printf.printf "ERROR %s\n" e) s.s_errors;
            (w, s))
          names
      in
      Printf.printf "model_fingerprint %s\n" (M.model_fingerprint ());
      Option.iter
        (fun f ->
          let oc = open_out f in
          output_string oc (ledger_text ~seed:!seed ~traced:!trace results);
          close_out oc)
        !json;
      let correct = List.for_all (fun (_, s) -> s.s_errors = []) results in
      let sum f = List.fold_left (fun a (_, s) -> a + f s) 0 results in
      let kind = if !trace then M.Layer else M.E2e in
      let metrics =
        match results with
        | [ (_, s) ] ->
          List.filter_map
            (fun (r : M.row) ->
              if r.kind = kind && not (M.ledger_only r.metric) then
                Some
                  ( r.metric,
                    M.Obj [ ("value", M.Num r.value); ("unit", M.Str r.unit_) ] )
              else None)
            s.s_rows
        | _ -> []
      in
      print_endline
        (M.to_string
           (M.Obj
              [ ("correct", M.Bool correct);
                ("attempted", M.Num (float_of_int (sum (fun s -> s.s_attempted))));
                ("failed", M.Num (float_of_int (sum (fun s -> s.s_failed))));
                ("metrics", M.Obj metrics) ]));
      if not correct then exit 1
    end
