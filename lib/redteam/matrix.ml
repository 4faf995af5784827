(** The attack-outcome matrix: every red-team scenario run both ways —
    against the unhardened stack (its defense turned off with
    {!Defenses.with_off}, or emulated away) and against the shipped
    stack. A healthy matrix reads BREACHED down the first column and
    BLOCKED down the second; any other cell is a regression. CI renders
    this to a markdown artifact via {!emit} (path in
    [$REDTEAM_MATRIX_OUT]). *)

type row = {
  scenario : string;
  vector : string;
  defense : string;
  unhardened : Scenarios.outcome;
  hardened : Scenarios.outcome;
}

let trace fmt =
  Printf.ksprintf
    (fun s ->
      if Sys.getenv_opt "REDTEAM_TRACE" <> None then (
        prerr_endline s;
        flush stderr))
    fmt

(* Each run gets a machine of its own (keys, vkey slots, files,
   listeners, the loader's records) and leaves this thread's pkru
   clear, so no run sees what another left behind. *)
let isolated f =
  Machine.run (Machine.create ()) (fun () ->
    Fun.protect ~finally:Pku.Pkru.reset_thread f)

let collect () : row list =
  List.map
    (fun (s : Scenarios.t) ->
      trace "[matrix] %s: unhardened..." s.Scenarios.sc_name;
      let unhardened () = s.Scenarios.run ~hardening:false in
      let unhardened =
        match s.Scenarios.toggle with
        | Some d -> isolated (fun () -> Defenses.with_off d unhardened)
        | None -> isolated unhardened
      in
      trace "[matrix] %s: hardened..." s.Scenarios.sc_name;
      let hardened = isolated (fun () -> s.Scenarios.run ~hardening:true) in
      trace "[matrix] %s: done" s.Scenarios.sc_name;
      { scenario = s.Scenarios.sc_name;
        vector = s.Scenarios.vector;
        defense = s.Scenarios.defense;
        unhardened;
        hardened })
    Scenarios.all

let cell = function
  | Scenarios.Breached _ -> "BREACHED"
  | Scenarios.Blocked _ -> "blocked"

let render (rows : row list) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# Red-team attack matrix\n\n";
  Buffer.add_string b
    "| scenario | attack vector | unhardened | hardened | defense |\n";
  Buffer.add_string b "|---|---|---|---|---|\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %s | %s | %s | %s |\n" r.scenario r.vector
           (cell r.unhardened) (cell r.hardened) r.defense))
    rows;
  Buffer.add_string b "\nDetails:\n\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "- **%s**\n  - unhardened: %s\n  - hardened: %s\n"
           r.scenario
           (Scenarios.outcome_string r.unhardened)
           (Scenarios.outcome_string r.hardened)))
    rows;
  Buffer.contents b

let env_var = "REDTEAM_MATRIX_OUT"

(* Write the rendered matrix where CI asked for it; silently a no-op
   in local runs with the variable unset. *)
let emit (rows : row list) : unit =
  match Sys.getenv_opt env_var with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (render rows))
