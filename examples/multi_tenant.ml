(** Multi-tenant sharing with independent failure — the paper's
    headline safety scenario (§3.4).

    Several "processes" (real threads bound to simulated process
    identities) share one protected store. One of them is SIGKILLed in
    the middle of a library call; the call completes, the store's
    invariants hold, and every other tenant keeps running.

    Run with: dune exec examples/multi_tenant.exe *)

module Client = Core.Client.Make (Platform.Real_sync)
module Plib = Client.Plib
module Process = Simos.Process

let tenants = 4

let ops_per_tenant = 2_000

let () =
  let owner = Simos.Process.make ~uid:1000 "bookkeeper" in
  let plib =
    Plib.create ~path:"/dev/shm/multi-tenant-kv" ~size:(64 lsl 20) ~owner ()
  in
  (* The bookkeeping process also runs its cleaner in the background,
     evicting cold items if space runs low (§3.2). *)
  Plib.start_cleaner ~interval_ns:2_000_000 plib;

  let kill_flag = Atomic.make false in
  let completed = Array.make tenants 0 in
  let killed_mid_call = Atomic.make 0 in

  let tenant_thread i =
    let proc = Process.make ~uid:(2000 + i) (Printf.sprintf "tenant-%d" i) in
    Plib.open_client plib ~process:proc;
    Process.with_process proc (fun () ->
      try
        for j = 0 to ops_per_tenant - 1 do
          let key = Printf.sprintf "tenant%d:key%d" i (j mod 97) in
          (match j mod 3 with
           | 0 -> ignore (Plib.set plib key (Printf.sprintf "%d.%d" i j))
           | 1 -> ignore (Plib.get plib key)
           | _ -> ignore (Plib.delete plib key));
          (* Tenant 0 gets SIGKILLed partway through its run — from
             "outside", while possibly inside a library call. *)
          if i = 0 && j = ops_per_tenant / 2
             && not (Atomic.exchange kill_flag true)
          then
            Process.kill ~now_ns:(Telemetry.Control.now_ns ()) proc;
          completed.(i) <- j + 1
        done
      with Process.Process_killed _ ->
        (* the dying thread finished its in-flight call first *)
        Atomic.incr killed_mid_call)
  in
  let threads = List.init tenants (fun i -> Thread.create tenant_thread i) in
  List.iter Thread.join threads;
  Plib.stop_cleaner plib;

  Printf.printf "tenant 0 was killed after %d ops (mid-call kills observed: %d)\n"
    completed.(0) (Atomic.get killed_mid_call);
  for i = 1 to tenants - 1 do
    Printf.printf "tenant %d finished all %d ops\n" i completed.(i);
    assert (completed.(i) = ops_per_tenant)
  done;

  (* The store survived the tenant's death with its invariants intact,
     and remains fully usable. *)
  Shm.Region.kernel_mode (fun () ->
    Plib.Store.check_invariants (Plib.store plib));
  let survivor = Process.make ~uid:3000 "late-arrival" in
  Process.with_process survivor (fun () ->
    assert (Plib.set plib "after-the-crash" "still working" = Mc_core.Store.Stored);
    assert (Plib.get plib "after-the-crash" <> None));
  Printf.printf "store invariants hold; library still serving. \n";
  print_endline "multi_tenant OK"
