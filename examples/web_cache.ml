(** A web-tier page cache, the workload memcached's intro motivates:
    render pages, cache them, serve hits — run twice, once against the
    socket server and once against the protected library, inside the
    virtual-time machine so the latency difference is visible exactly.

    Run with: dune exec examples/web_cache.exe *)

module S = Vm.Sync
module Client = Core.Client.Make (Vm.Sync)
module Server = Mc_server.Server.Make (Vm.Sync) (Client.T)
open Core.Errors

let pages = 200

let requests = 5_000

let render_cost_ns = 120_000 (* "rendering" a page costs 120 us *)

let page_body i = Printf.sprintf "<html><body>page %d %s</body></html>" i (String.make 400 'x')

(* The web handler: look in the cache, render + fill on a miss. *)
let handle_request st rng =
  let page = Ycsb.Rng.next_int rng pages in
  let key = Printf.sprintf "page:%d" page in
  match Client.memcached_get st key with
  | Ok _ -> `Hit
  | Error MEMCACHED_NOTFOUND ->
    S.advance render_cost_ns;
    ignore (Client.memcached_set st ~exptime:300 key (page_body page));
    `Miss
  | Error e -> failwith (to_string e)

let run_tier ~label (make_st : unit -> Client.memcached_st * (unit -> unit)) =
  let vm = Vm.create () in
  let hits = Atomic.make 0 and misses = Atomic.make 0 in
  let lat = Ycsb.Histogram.create () in
  ignore (Vm.spawn vm ~name:"web-tier" (fun () ->
    let st, teardown = make_st () in
    let rng = Ycsb.Rng.create 7 in
    for _ = 1 to requests do
      let t0 = S.now_ns () in
      (match handle_request st rng with
       | `Hit -> Atomic.incr hits
       | `Miss -> Atomic.incr misses);
      Ycsb.Histogram.record lat (S.now_ns () - t0)
    done;
    teardown ()));
  Vm.run vm;
  Printf.printf
    "%-28s %5d hits %4d misses | request p50 %6.1f us  p99 %7.1f us\n" label
    (Atomic.get hits) (Atomic.get misses)
    (float_of_int (Ycsb.Histogram.percentile lat 50.0) /. 1e3)
    (float_of_int (Ycsb.Histogram.percentile lat 99.0) /. 1e3);
  float_of_int (Ycsb.Histogram.percentile lat 50.0)

let () =
  (* Socket-backed tier: the classic deployment. *)
  let socket_p50 =
    run_tier ~label:"socket memcached" (fun () ->
      let srv =
        Server.start
          ~cfg:{ Mc_server.Server.default_config with workers = 4 }
          ~name:"web-cache" ()
      in
      ( Client.memcached_create
          (Client.Socket_backend (Client.Sock.connect ~name:"web-cache" ())),
        fun () -> Server.stop srv ))
  in
  (* Protected-library tier: same handler code, same classic API —
     only the backend changed (the drop-in replacement story, §3.1). *)
  let owner = Simos.Process.make ~uid:1000 "bookkeeper" in
  let plib =
    Client.Plib.create ~path:"/dev/shm/web-cache-kv" ~size:(64 lsl 20) ~owner ()
  in
  let plib_p50 =
    run_tier ~label:"protected-library memcached" (fun () ->
      (Client.memcached_create (Client.Plib_backend plib), fun () -> ()))
  in
  Printf.printf "cache-hit p50 speedup: ~%.0fx\n" (socket_p50 /. plib_p50);
  print_endline "web_cache OK"
