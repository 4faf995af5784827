(** The YCSB client harness: load a store, then drive it from a set of
    client threads, measuring per-operation latency and aggregate
    throughput. A functor over the substrate, so the same harness runs
    the examples on real threads and the benchmarks inside the
    virtual-time machine. *)

type db = {
  db_read : string -> bool;  (** returns hit/miss *)
  db_update : string -> string -> bool;
}

type batch_db = {
  b_run : Workload.op list -> bool list;
  (** execute the ops as one batch — one protection crossing or one
      pipelined round trip — returning per-op outcomes aligned with
      the input (reads report hit/miss; updates report true) *)
}

type open_db = {
  o_submit : Workload.op -> unit;
  (** enqueue the request; returns as soon as the transport accepted
      it (which may block on transport backpressure — that stall is
      real queueing delay and is charged to the op) *)
  o_await : unit -> bool;
  (** receive the next completion, in submission order (reads report
      hit/miss; updates report true) *)
}

type result = {
  r_ops : int;
  r_elapsed_ns : int;
  r_hist : Histogram.t;
  r_read_hist : Histogram.t;
  r_update_hist : Histogram.t;
  r_hits : int;
  r_misses : int;
}

let throughput_ktps r =
  if r.r_elapsed_ns = 0 then 0.0
  else float_of_int r.r_ops /. (float_of_int r.r_elapsed_ns /. 1e9) /. 1e3

module Make (S : Platform.Sync_intf.S) = struct
  (* Populate the store with every key (the YCSB load phase). *)
  let load (w : Workload.t) (db : db) =
    for i = 0 to w.Workload.record_count - 1 do
      let key = Workload.key_of w i in
      ignore (db.db_update key (Workload.value_of w i))
    done

  type thread_result = {
    hist : Histogram.t;
    rhist : Histogram.t;
    uhist : Histogram.t;
    mutable hits : int;
    mutable misses : int;
  }

  (* Driver-level ingress: the plib backend's own [plib.*] ingress
     nests under this as a child, so a trace shows the whole op (or
     batch) as the driver saw it. *)
  let traced op f =
    let root = Telemetry.Probe.ingress ~op () in
    let r = f () in
    Telemetry.Span.finish root;
    r

  let client_body (w : Workload.t) (db : db) ~tid ~ops (tr : thread_result) =
    let rng = Rng.create (w.Workload.seed + (7919 * tid)) in
    let choose = Workload.chooser w rng in
    for _ = 1 to ops do
      let op = Workload.next_op w rng choose in
      let t0 = S.now_ns () in
      (match op with
       | Workload.Read key ->
         if traced "ycsb.read" (fun () -> db.db_read key) then
           tr.hits <- tr.hits + 1
         else tr.misses <- tr.misses + 1
       | Workload.Update (key, value) ->
         ignore (traced "ycsb.update" (fun () -> db.db_update key value)));
      let dt = S.now_ns () - t0 in
      Histogram.record tr.hist dt;
      (match op with
       | Workload.Read _ -> Histogram.record tr.rhist dt
       | Workload.Update _ -> Histogram.record tr.uhist dt)
    done

  (* Batched client: the op stream is drawn from exactly the same
     per-thread rng stream as [client_body] — batching changes only
     where execution happens, so a same-seed run touches the same keys
     in the same order at every batch size (the determinism the
     regression test pins). Per-op latency is the batch's wall time
     split evenly over its ops. *)
  let client_body_batched (w : Workload.t) (db : batch_db) ~batch ~tid ~ops
      (tr : thread_result) =
    let rng = Rng.create (w.Workload.seed + (7919 * tid)) in
    let choose = Workload.chooser w rng in
    let pending = ref [] and npending = ref 0 in
    let flush () =
      if !npending > 0 then begin
        let batch_ops = List.rev !pending in
        let n = !npending in
        pending := [];
        npending := 0;
        let t0 = S.now_ns () in
        let oks = traced "ycsb.batch" (fun () -> db.b_run batch_ops) in
        let dt = (S.now_ns () - t0) / n in
        List.iter2
          (fun op ok ->
            Histogram.record tr.hist dt;
            match op with
            | Workload.Read _ ->
              Histogram.record tr.rhist dt;
              if ok then tr.hits <- tr.hits + 1
              else tr.misses <- tr.misses + 1
            | Workload.Update _ -> Histogram.record tr.uhist dt)
          batch_ops oks
      end
    in
    for _ = 1 to ops do
      pending := Workload.next_op w rng choose :: !pending;
      incr npending;
      if !npending >= batch then flush ()
    done;
    flush ()

  let collect threads ops_per_thread t_start (results : thread_result array) =
    let elapsed = S.now_ns () - t_start in
    let hist = Histogram.create () in
    let rhist = Histogram.create () in
    let uhist = Histogram.create () in
    let hits = ref 0 and misses = ref 0 in
    Array.iter
      (fun tr ->
        Histogram.merge ~into:hist tr.hist;
        Histogram.merge ~into:rhist tr.rhist;
        Histogram.merge ~into:uhist tr.uhist;
        hits := !hits + tr.hits;
        misses := !misses + tr.misses)
      results;
    { r_ops = ops_per_thread * threads; r_elapsed_ns = elapsed; r_hist = hist;
      r_read_hist = rhist; r_update_hist = uhist; r_hits = !hits;
      r_misses = !misses }

  (* Run [w.operation_count] operations split across [threads] clients;
     [db_for] lets each client own its connection (socket backend) or
     share the library handle (plib backend). *)
  let run ?(threads = 1) (w : Workload.t) ~(db_for : int -> db) : result =
    let ops_per_thread = max 1 (w.Workload.operation_count / threads) in
    let results =
      Array.init threads (fun _ ->
        { hist = Histogram.create (); rhist = Histogram.create ();
          uhist = Histogram.create (); hits = 0; misses = 0 })
    in
    let t_start = S.now_ns () in
    let handles =
      List.init threads (fun tid ->
        let db = db_for tid in
        S.spawn
          ~name:(Printf.sprintf "ycsb-client-%d" tid)
          (fun () -> client_body w db ~tid ~ops:ops_per_thread results.(tid)))
    in
    List.iter S.join handles;
    collect threads ops_per_thread t_start results

  (* Open-loop (arrival-rate) client: a submitter fiber paces requests
     at a fixed interval and a collector fiber consumes completions,
     measuring each op's latency from its *intended* arrival time —
     the coordinated-omission-correct figure, so queueing delay past
     the knee shows up instead of silently stretching the load loop.
     The op stream is drawn from exactly the same per-thread rng
     stream as [client_body]: a same-seed run touches the same keys in
     the same order at every offered rate and batch-window setting. *)
  let client_body_open (w : Workload.t) (db : open_db) ~interval_ns ~tid ~ops
      (tr : thread_result) =
    let rng = Rng.create (w.Workload.seed + (7919 * tid)) in
    let choose = Workload.chooser w rng in
    let stamps : (int * Workload.op) S.chan = S.chan () in
    let t0 = S.now_ns () in
    let submitter =
      S.spawn
        ~name:(Printf.sprintf "ycsb-submit-%d" tid)
        (fun () ->
          for i = 0 to ops - 1 do
            let op = Workload.next_op w rng choose in
            let intended = t0 + (i * interval_ns) in
            let now = S.now_ns () in
            if now < intended then S.sleep_ns (intended - now);
            S.send stamps (intended, op);
            db.o_submit op
          done;
          S.close stamps)
    in
    let rec collect () =
      match S.recv stamps with
      | intended, op ->
        let ok = db.o_await () in
        let dt = S.now_ns () - intended in
        Histogram.record tr.hist dt;
        (match op with
         | Workload.Read _ ->
           Histogram.record tr.rhist dt;
           if ok then tr.hits <- tr.hits + 1 else tr.misses <- tr.misses + 1
         | Workload.Update _ -> Histogram.record tr.uhist dt);
        collect ()
      | exception S.Closed -> ()
    in
    collect ();
    S.join submitter

  (* Offered load [rate_kops] is split evenly across the client
     threads; each thread runs its own submitter/collector pair. *)
  let run_open ?(threads = 1) ~rate_kops (w : Workload.t)
      ~(db_for : int -> open_db) : result =
    if rate_kops <= 0 then invalid_arg "Runner.run_open: rate_kops <= 0";
    let ops_per_thread = max 1 (w.Workload.operation_count / threads) in
    let interval_ns = max 1 (1_000_000 * threads / rate_kops) in
    let results =
      Array.init threads (fun _ ->
        { hist = Histogram.create (); rhist = Histogram.create ();
          uhist = Histogram.create (); hits = 0; misses = 0 })
    in
    let t_start = S.now_ns () in
    let handles =
      List.init threads (fun tid ->
        let db = db_for tid in
        S.spawn
          ~name:(Printf.sprintf "ycsb-client-%d" tid)
          (fun () ->
            client_body_open w db ~interval_ns ~tid ~ops:ops_per_thread
              results.(tid)))
    in
    List.iter S.join handles;
    collect threads ops_per_thread t_start results

  (* The batch-size knob: identical orchestration, but each client
     submits its ops [batch] at a time through a {!batch_db}. *)
  let run_batched ?(threads = 1) ?(batch = 1) (w : Workload.t)
      ~(db_for : int -> batch_db) : result =
    if batch < 1 then invalid_arg "Runner.run_batched: batch < 1";
    let ops_per_thread = max 1 (w.Workload.operation_count / threads) in
    let results =
      Array.init threads (fun _ ->
        { hist = Histogram.create (); rhist = Histogram.create ();
          uhist = Histogram.create (); hits = 0; misses = 0 })
    in
    let t_start = S.now_ns () in
    let handles =
      List.init threads (fun tid ->
        let db = db_for tid in
        S.spawn
          ~name:(Printf.sprintf "ycsb-client-%d" tid)
          (fun () ->
            client_body_batched w db ~batch ~tid ~ops:ops_per_thread
              results.(tid)))
    in
    List.iter S.join handles;
    collect threads ops_per_thread t_start results
end
