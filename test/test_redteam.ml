(** The red team: adversarial scenarios against the protection
    boundary, the seeded protocol fuzzer, and the hostile-flush storm
    against the optimistic read path.

    The heart of the suite is the attack matrix: every scenario in
    {!Redteam.Scenarios.all} runs twice — once with its defense
    reverted (the pre-fix stack, where the attack must BREACH) and
    once against the shipped stack (where it must be BLOCKED). An
    attack that cannot breach the unhardened stack is a broken attack;
    a hardened breach is a broken defense. Both fail the suite. *)

module S = Redteam.Scenarios
module M = Redteam.Matrix
module F = Redteam.Fuzz

(* ---- The attack matrix ---------------------------------------------- *)

let test_attack_matrix () =
  let rows = M.collect () in
  Alcotest.(check int) "every scenario ran" (List.length S.all)
    (List.length rows);
  M.emit rows;
  List.iter
    (fun (r : M.row) ->
      (match r.M.unhardened with
       | S.Breached _ -> ()
       | S.Blocked m ->
         Alcotest.failf
           "%s: attack failed to breach the UNHARDENED stack — the red half \
            of the red/green pair is broken (%s)"
           r.M.scenario m);
      match r.M.hardened with
      | S.Blocked _ -> ()
      | S.Breached m ->
        Alcotest.failf "%s: attack breached the HARDENED stack: %s"
          r.M.scenario m)
    rows

(* ---- Defenses as data ----------------------------------------------- *)

(* A defense no scenario breaches is code the matrix cannot show to
   matter: every member of [Defenses.all] must be some row's toggle. *)
let test_every_defense_has_a_row () =
  List.iter
    (fun d ->
      if not (List.exists (fun (s : S.t) -> s.S.toggle = Some d) S.all) then
        Alcotest.failf "defense %s has no attack-matrix row"
          (Defenses.name d))
    Defenses.all

let test_with_off_restores () =
  let d = Defenses.Seccomp in
  let check what want = Alcotest.(check bool) what want (Defenses.on d) in
  Alcotest.check_raises "the raise escapes" (Failure "inside") (fun () ->
    Defenses.with_off d (fun () -> failwith "inside"));
  check "restored after a raise" true;
  Defenses.with_off d (fun () ->
    Defenses.with_off d (fun () -> check "off inside the inner scope" false);
    check "inner exit keeps the outer scope off" false;
    Alcotest.(check bool) "other defenses untouched" true
      (Defenses.on Defenses.Gate_checks));
  check "restored after nesting" true

(* ---- Gadget-scan soundness (property) ------------------------------- *)

(* Mutating any admitted binary so that its bytes contain a
   pkru-writing gadget sequence must flip admission to rejected —
   wherever the gadget lands and whichever flavor it is. *)
let qcheck_gadget_scan_soundness =
  QCheck.Test.make ~name:"gadget byte injection flips admission" ~count:100
    QCheck.(triple small_nat small_nat bool)
    (fun (seed, pos_seed, use_xrstor) ->
      let rng = Random.State.make [| seed; 0x5eed |] in
      let n = 3 + Random.State.int rng 6 in
      let insns =
        Array.init n (fun _ ->
          match Random.State.int rng 4 with
          | 0 -> Pku.Insn.Compute (1 + Random.State.int rng 9)
          | 1 -> Pku.Insn.Ret
          | 2 ->
            (* benign data: printable bytes, no 0x0f anywhere *)
            Pku.Insn.Data
              (String.init
                 (1 + Random.State.int rng 12)
                 (fun _ -> Char.chr (0x20 + Random.State.int rng 0x50)))
          | _ -> Pku.Insn.Compute 1)
      in
      let clean = Pku.Insn.make (Printf.sprintf "qc-clean-%d" seed) insns in
      (match Hodor.Loader.admit (Pku.Debug_regs.create ()) clean with
       | Hodor.Loader.Admitted _ -> ()
       | Hodor.Loader.Rejected m ->
         QCheck.Test.fail_reportf "clean binary rejected: %s" m);
      let island =
        if use_xrstor then
          Redteam.Gadget.xrstor_island ~pkru_value:Pku.Pkru.all_enabled
        else Redteam.Gadget.wrpkru_island ~pkru_value:Pku.Pkru.all_enabled
      in
      let at = pos_seed mod (n + 1) in
      let mutated =
        Pku.Insn.make
          (Printf.sprintf "qc-evil-%d-%d-%b" seed pos_seed use_xrstor)
          (Array.init (n + 1) (fun i ->
             if i < at then insns.(i)
             else if i = at then Pku.Insn.Data island
             else insns.(i - 1)))
      in
      match Hodor.Loader.admit (Pku.Debug_regs.create ()) mutated with
      | Hodor.Loader.Rejected _ -> true
      | Hodor.Loader.Admitted _ ->
        QCheck.Test.fail_reportf
          "binary still admitted with a %s gadget spliced at insn %d"
          (if use_xrstor then "xrstor" else "wrpkru")
          at)

(* ---- Fuzzer: red demonstration then the green campaign -------------- *)

let seeds_cap () =
  match Sys.getenv_opt "REDTEAM_SEEDS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 2)
  | None -> 2

let test_fuzz_campaign () =
  for seed = 1 to seeds_cap () do
    let v = F.run ~cases:F.default_cases ~seed () in
    match v.F.v_failures with
    | [] -> ()
    | (proto, input, f) :: _ ->
      Alcotest.failf "seed %d [%s]: %s (input %S)" seed
        (F.proto_string proto) (F.failure_string f) input
  done

(* Same campaign, attacker bound to tenant A with tenant B's secret
   across the namespace boundary; every case carries a forged-prefix
   or prefix-splice mutation. The leak oracle is the isolation proof. *)
let test_fuzz_tenant_campaign () =
  for seed = 1 to seeds_cap () do
    let v = F.run_tenant ~cases:F.default_cases ~seed () in
    match v.F.v_failures with
    | [] -> ()
    | (proto, input, f) :: _ ->
      Alcotest.failf "tenant seed %d [%s]: %s (input %S)" seed
        (F.proto_string proto) (F.failure_string f) input
  done

(* Red half of the tenant fuzz pair: with namespace enforcement
   reverted, the forged prefix must actually reach the victim's value
   — proof the leak oracle bites. *)
let test_fuzz_tenant_oracle_catches_unhardened_leak () =
  Defenses.with_off Tenant_namespace @@ fun () ->
  match F.run_input ~tenant:F.tenant_a F.Ascii "get tb/secret\r\n" with
  | [] ->
    Alcotest.fail
      "unhardened namespace let the forged prefix through unnoticed"
  | fs ->
    Alcotest.(check bool)
      "failure is a leak" true
      (List.exists (function F.Leak _ -> true | _ -> false) fs)

(* ---- Corpus replay --------------------------------------------------- *)

(* Every interesting input the fuzzer (or a bug report) ever surfaced
   lives in test/corpus/ and replays deterministically: file prefix
   picks the protocol, file bytes are the attacker's exact input, and
   all oracles must stay green. *)
let test_corpus_replay () =
  (* dune runtest runs with cwd = the test dir; dune exec does not —
     fall back to the executable's own directory *)
  let dir =
    List.find_opt Sys.file_exists
      [ "corpus"; "test/corpus";
        Filename.concat (Filename.dirname Sys.executable_name) "corpus" ]
    |> function
    | Some d -> d
    | None -> Alcotest.fail "corpus directory not found"
  in
  let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
  if List.length files < 6 then
    Alcotest.failf "corpus too small: %d files" (List.length files);
  List.iter
    (fun name ->
      match F.proto_of_filename name with
      | None -> Alcotest.failf "corpus file %S has no protocol prefix" name
      | Some proto ->
        let ic = open_in_bin (Filename.concat dir name) in
        let input =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        (match F.run_input ?tenant:(F.tenant_of_filename name) proto input with
         | [] -> ()
         | f :: _ ->
           Alcotest.failf "corpus %S: %s" name (F.failure_string f)))
    files;
  (* the tenant corpus must actually exist: forged-prefix and
     prefix-splice inputs replay through the tenant harness *)
  let tenant_files =
    List.filter (fun n -> F.tenant_of_filename n <> None) files
  in
  if List.length tenant_files < 2 then
    Alcotest.failf "tenant corpus too small: %d files"
      (List.length tenant_files)

(* ---- Hostile flush storm vs the optimistic read path ----------------- *)

(* An attacker with nothing but flush_all and eviction pressure tries
   to make the seqlock read path serve torn or stale-beyond-flush
   values. Readers race gets against a storm of flushes, churn-driven
   evictions and re-sets under seeded schedules; every get must return
   either a miss or the exact expected bytes. *)
module VStore = Mc_core.Store.Make (Mc_core.Private_memory) (Mc_core.Slab) (Vm.Sync)

let test_hostile_flush_storm () =
  List.iter
    (fun seed ->
      let arena = Mc_core.Private_memory.create ~limit:(8 lsl 20) in
      let slab = Mc_core.Slab.create ~arena ~mem_limit:(4 lsl 20) in
      let cfg =
        { Mc_core.Store.default_config with
          hashpower = 6; lock_count = 4; lru_count = 2; stats_slots = 4;
          optimistic_reads = true }
      in
      let store = VStore.create ~mem:arena ~alloc:slab cfg in
      let keys = List.init 8 (fun i -> Printf.sprintf "h%d" i) in
      let expected k = "stable-value-" ^ k in
      let vm = Vm.create ~sched_seed:seed ~preempt_jitter:30 () in
      let bad = ref None in
      for r = 0 to 2 do
        ignore
          (Vm.spawn vm
             ~name:(Printf.sprintf "reader-%d" r)
             (fun () ->
               for _ = 1 to 40 do
                 List.iter
                   (fun k ->
                     (match VStore.get store k with
                      | Some g when g.Mc_core.Store.value <> expected k ->
                        bad :=
                          Some
                            (Printf.sprintf
                               "seed %d: reader saw %S for %s (want %S or a \
                                miss)"
                               seed g.Mc_core.Store.value k (expected k))
                      | _ -> ());
                     Vm.Sync.advance 7)
                   keys
               done))
      done;
      ignore
        (Vm.spawn vm ~name:"flusher" (fun () ->
             for i = 1 to 30 do
               VStore.flush_all store;
               Vm.Sync.advance 13;
               (* churn well past the slab limit so eviction runs hot *)
               for j = 0 to 7 do
                 ignore
                   (VStore.set store
                      (Printf.sprintf "junk-%d-%d" i j)
                      (String.make 8192 'j'))
               done;
               List.iter
                 (fun k -> ignore (VStore.set store k (expected k)))
                 keys;
               Vm.Sync.advance 11
             done));
      Vm.run vm;
      (match !bad with None -> () | Some m -> Alcotest.fail m);
      (* invariants checked inside a simulation context: the store's
         locks belong to Vm.Sync *)
      let vm2 = Vm.create () in
      ignore
        (Vm.spawn vm2 ~name:"checker" (fun () ->
             VStore.check_invariants store));
      Vm.run vm2)
    [ 101; 202; 303 ]

let () =
  Alcotest.run "redteam"
    [ ( "attack matrix",
        [ Alcotest.test_case
            (Printf.sprintf "%d scenarios, red then green" (List.length S.all))
            `Slow test_attack_matrix ] );
      ( "defenses",
        [ Alcotest.test_case "every defense has a row" `Quick
            test_every_defense_has_a_row;
          Alcotest.test_case "with_off restores" `Quick
            test_with_off_restores ] );
      ( "loader",
        [ QCheck_alcotest.to_alcotest qcheck_gadget_scan_soundness ] );
      ( "fuzz",
        [ Alcotest.test_case "seeded campaign (200+ cases/seed)" `Slow
            test_fuzz_campaign;
          Alcotest.test_case "tenant oracle catches the unhardened leak"
            `Quick test_fuzz_tenant_oracle_catches_unhardened_leak;
          Alcotest.test_case "tenant campaign (forged prefixes)" `Slow
            test_fuzz_tenant_campaign;
          Alcotest.test_case "corpus replay" `Quick test_corpus_replay ] );
      ( "optimistic reads",
        [ Alcotest.test_case "hostile flush storm" `Slow
            test_hostile_flush_storm ] ) ]
