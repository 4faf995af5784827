(** An interactive shell over the protected-library memcached, with
    durable heap images: state survives across invocations through the
    flush/restart path (§3.2).

    Usage:
      dune exec bin/kv_shell.exe -- --image /tmp/kv.img
      kv> set greeting hello
      kv> get greeting
      kv> quit                        # flushes to the image
      dune exec bin/kv_shell.exe -- --image /tmp/kv.img
      kv> get greeting                # still there *)

module Client = Core.Client.Make (Platform.Real_sync)
module Plib = Client.Plib
module P = Mc_protocol.Types

let usage () =
  print_string
    "commands:\n\
    \  get <key>              set <key> <value>      add <key> <value>\n\
    \  mget <key> [key ...]   (one crossing for the whole key list)\n\
    \  replace <key> <value>  append <key> <suffix>  prepend <key> <prefix>\n\
    \  del <key>              incr <key> [n]         decr <key> [n]\n\
    \  touch <key> <secs>     stats [arg]            flush_all\n\
    \  resize                 maintain               help\n\
    \  keys                   reap\n\
    \  telemetry              trace [n]              trace <subsys> [sev]\n\
    \  trace-tree [n]         (last n sampled span trees, default 3)\n\
    \  doctor                 (post-mortem forensic report)\n\
    \  heap-map               (one character per superblock)\n\
    \  quit (flushes to the image when one is configured)\n\
    \  stats args: items | slabs | latency | phases | contention | reset\n\
    \              settings | heap | forensics | tenants | rings\n"

let print_value k (r : Mc_core.Store.get_result) =
  Printf.printf "VALUE %s flags=%d cas=%Ld\n%s\n" k r.flags r.cas r.value

let shell plib image =
  let open Mc_core.Store in
  let quit = ref false in
  while not !quit do
    print_string "kv> ";
    match In_channel.input_line stdin with
    | None -> quit := true
    | Some line ->
      let words =
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun w -> w <> "")
      in
      (try
         match words with
         | [] -> ()
         | [ "help" ] -> usage ()
         | [ "quit" ] | [ "exit" ] -> quit := true
         | [ "get"; k ] ->
           (match Plib.get plib k with
            | Some r -> print_value k r
            | None -> print_endline "NOT_FOUND")
         | "mget" :: (_ :: _ as keys) ->
           (* the whole key list rides one trampoline crossing *)
           let hits = Plib.mget plib keys in
           List.iter (fun (k, r) -> print_value k r) hits;
           Printf.printf "END (%d of %d hit)\n" (List.length hits)
             (List.length keys)
         | (("set" | "add" | "replace" | "append" | "prepend") as op) :: k
           :: rest ->
           let v = String.concat " " rest in
           print_endline
             (match
                match op with
                | "set" -> Plib.set plib k v
                | "add" -> Plib.add plib k v
                | "replace" -> Plib.replace plib k v
                | "append" -> Plib.append plib k v
                | _ -> Plib.prepend plib k v
              with
              | Stored -> "STORED"
              | No_memory -> "SERVER_ERROR out of memory"
              | _ -> "NOT_STORED")
         | [ "del"; k ] ->
           print_endline (if Plib.delete plib k then "DELETED" else "NOT_FOUND")
         | (("incr" | "decr") as op) :: k :: ([] | [ _ ] as n) -> (
             let delta = match n with [ n ] -> Int64.of_string n | _ -> 1L in
             match (if op = "incr" then Plib.incr else Plib.decr) plib k delta with
             | Counter v -> Printf.printf "%Lu\n" v
             | Counter_not_found -> print_endline "NOT_FOUND"
             | Non_numeric -> print_endline "CLIENT_ERROR non-numeric")
         | [ "touch"; k; secs ] ->
           print_endline
             (if Plib.touch plib k (int_of_string secs) then "TOUCHED"
              else "NOT_FOUND")
         | [ "keys" ] ->
           let n =
             Plib.fold_keys plib
               (fun n key ~nbytes ~exptime ->
                 Printf.printf "%s (%d bytes%s)\n" key nbytes
                   (if exptime = 0 then ""
                    else Printf.sprintf ", expires %d" exptime);
                 n + 1)
               0
           in
           Printf.printf "%d key(s)\n" n
         | [ "reap" ] ->
           Printf.printf "reaped %d expired item(s)\n" (Plib.reap_expired plib)
         | "stats" :: ([] | [ _ ] as arg) -> (
             (* every surface through the executor's own `stats` arm,
                inside one crossing, exactly as a server answers it *)
             match Plib.batch plib [ P.Stats (List.nth_opt arg 0) ] with
             | [ P.Stats_reply kvs ] ->
               List.iter (fun (k, v) -> Printf.printf "STAT %s %s\n" k v) kvs
             | [ P.Reset ] -> print_endline "RESET"
             | [ P.Client_error m ] -> Printf.printf "CLIENT_ERROR %s\n" m
             | _ -> print_endline "ERROR")
         | [ "doctor" ] -> print_string (Plib.doctor plib)
         | [ "heap-map" ] -> print_string (Plib.heap_report plib)
         | [ "telemetry" ] ->
           (* everything the subsystem holds, store-op mirrors included *)
           List.iter
             (fun (k, v) -> Printf.printf "STAT %s %s\n" k v)
             (Telemetry.Counters.all_kvs () @ Telemetry.Probe.Latency.kvs ())
         | "trace" :: args ->
           (* trace [n] | trace <subsys> [severity] *)
           let n, subsys, min_sev =
             match args with
             | [] -> (None, None, None)
             | [ a ] ->
               (match int_of_string_opt a with
                | Some n -> (Some n, None, None)
                | None -> (None, Some a, None))
             | [ s; sev ] ->
               (match Telemetry.Trace.severity_of_string sev with
                | Some _ as ms -> (None, Some s, ms)
                | None -> failwith ("unknown severity " ^ sev))
             | _ -> failwith "usage: trace [n] | trace <subsys> [severity]"
           in
           let evs = Telemetry.Trace.dump ?n ?subsys ?min_sev () in
           List.iter (fun e -> print_endline (Telemetry.Trace.render e)) evs;
           Printf.printf "%d event(s) shown, %d emitted in total\n"
             (List.length evs)
             (Telemetry.Trace.emitted ());
           if evs = [] && subsys <> None then
             Printf.printf "subsystems in the ring: %s\n"
               (String.concat " " (Telemetry.Trace.subsystems ()))
         | [ "trace-tree" ] | [ "trace-tree"; _ ] ->
           let n =
             match words with [ _; n ] -> int_of_string n | _ -> 3
           in
           (match Telemetry.Span.traces ~n () with
            | [] -> print_endline "no sampled traces (is TELEMETRY on?)"
            | trs ->
              List.iter (fun tr -> print_string (Telemetry.Span.render_tree tr))
                trs)
         | [ "flush_all" ] ->
           Plib.flush_all plib;
           print_endline "OK"
         | [ "resize" ] ->
           print_endline (if Plib.resize plib then "RESIZED" else "FAILED")
         | [ "maintain" ] ->
           Plib.maintain plib;
           print_endline "OK"
         | w :: _ -> Printf.printf "ERROR unknown command %S (try help)\n" w
       with e -> Printf.printf "ERROR %s\n" (Printexc.to_string e))
  done;
  match image with
  | Some path ->
    Plib.shutdown plib ~disk_path:path;
    Printf.printf "flushed heap to %s\n" path
  | None -> ()

let run image size_mb =
  let owner = Simos.Process.make ~uid:1000 "kv-shell-bookkeeper" in
  let plib =
    match image with
    | Some path when Sys.file_exists path ->
      Printf.printf "restoring heap from %s\n" path;
      Plib.restart ~disk_path:path ~path:"/dev/shm/kv-shell" ~owner ()
    | _ ->
      Plib.create ~path:"/dev/shm/kv-shell" ~size:(size_mb lsl 20) ~owner ()
  in
  usage ();
  shell plib image

open Cmdliner

let image =
  Arg.(value & opt (some string) None
       & info [ "image"; "i" ] ~docv:"FILE"
           ~doc:"Heap image: restored on start, flushed on quit.")

let size_mb =
  Arg.(value & opt int 64
       & info [ "size" ] ~docv:"MB" ~doc:"Heap size for a fresh store (MiB).")

let cmd =
  Cmd.v
    (Cmd.info "kv_shell" ~doc:"interactive protected-library memcached shell")
    Term.(const run $ image $ size_mb)

let () = exit (Cmd.eval cmd)
