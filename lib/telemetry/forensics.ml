(** Post-mortem forensics over the flight recorder.

    After a crash and {!Hodor.Library.recover}, the breadcrumbs that
    survived in the shared heap ({!Flight}) are the only record of
    what the library was doing when it died. This module turns them
    into a story: a per-lane timeline of the final events, a death
    classification (mid-crossing / holding-stripes / mid-ring-drain /
    idle), the victim op, tenant, stripes and ring window, plus the
    caller's cross-checks of the forensic story against what recovery
    actually repaired (stripe seqlocks released, rings quiesced, heap
    invariants holding).

    The analyzer is deliberately pure over the recorder's dump — it
    can run equally against a live store ([kv_shell doctor] on a
    healthy image reports "idle, no recorded death") or a freshly
    recovered one. *)

type classification = Idle | Mid_crossing | Holding_stripes | Mid_ring_drain

let class_name = function
  | Idle -> "idle"
  | Mid_crossing -> "mid_crossing"
  | Holding_stripes -> "holding_stripes"
  | Mid_ring_drain -> "mid_ring_drain"

(* The same precedence the ground-truth capture in the crash sweep
   uses: holding a stripe implies being inside a crossing, and a ring
   drain wraps a crossing that may take stripes, so the more specific
   (and more dangerous-to-recover) state wins. *)
let class_rank = function
  | Holding_stripes -> 3
  | Mid_ring_drain -> 2
  | Mid_crossing -> 1
  | Idle -> 0

(* ---- op interning ------------------------------------------------------ *)

(* Fixed table matching [Mc_protocol.Types.command_name]; breadcrumbs
   carry the index so a record stays one machine word per field. *)
let op_names =
  [| "?"; "get"; "gets"; "set"; "add"; "replace"; "append"; "prepend"; "cas";
     "delete"; "incr"; "decr"; "touch"; "stats"; "version"; "flush_all";
     "quit"; "noop"; "invalid" |]

let op_code name =
  let rec find i =
    if i >= Array.length op_names then 0
    else if op_names.(i) = name then i
    else find (i + 1)
  in
  find 1

let op_name code =
  if code > 0 && code < Array.length op_names then op_names.(code) else "?"

(* ---- per-lane state reconstruction ------------------------------------- *)

type lane_state = {
  ls_lane : int;
  ls_depth : int;  (** trampoline crossing depth at death *)
  ls_held : int;  (** stripes held at death *)
  ls_stripes : int list;  (** individually known held stripes *)
  ls_drain : bool;
  ls_conn : int;
  ls_msgs : int;
  ls_op : int;
  ls_tenant : int;
  ls_last_stamp : int;
  ls_entries : Flight.entry list;
}

let idle_lane lane =
  { ls_lane = lane; ls_depth = 0; ls_held = 0; ls_stripes = [];
    ls_drain = false; ls_conn = -1; ls_msgs = 0; ls_op = 0; ls_tenant = -1;
    ls_last_stamp = 0; ls_entries = [] }

(* Fold a lane's surviving window oldest-to-newest. State records
   carry the post-transition value in [e_a], so the latest record of
   each family is authoritative even when the window wrapped past the
   matching begin/acquire. *)
let lane_state lane =
  let entries = Flight.dump_lane lane in
  List.fold_left
    (fun ls (e : Flight.entry) ->
      let ls = { ls with ls_last_stamp = max ls.ls_last_stamp e.e_stamp;
                         ls_entries = ls.ls_entries } in
      match e.e_kind with
      | Flight.Cross_enter | Flight.Cross_exit -> { ls with ls_depth = e.e_a }
      | Flight.Stripe_acquire ->
        { ls with ls_held = e.e_a; ls_stripes = e.e_b :: ls.ls_stripes }
      | Flight.Stripe_release ->
        { ls with ls_held = e.e_a;
                  ls_stripes = List.filter (fun s -> s <> e.e_b) ls.ls_stripes }
      | Flight.Ring_drain_begin ->
        { ls with ls_drain = true; ls_conn = e.e_b; ls_msgs = e.e_c }
      | Flight.Ring_drain_end ->
        { ls with ls_drain = false; ls_conn = e.e_b; ls_msgs = e.e_c }
      | Flight.Op_dispatch ->
        { ls with ls_op = e.e_a;
                  ls_tenant = (if e.e_b >= 0 then e.e_b else ls.ls_tenant);
                  ls_conn = (if e.e_c >= 0 then e.e_c else ls.ls_conn) }
      | Flight.Tenant_scope -> { ls with ls_tenant = e.e_a }
      | Flight.Tenant_unscope -> { ls with ls_tenant = -1 }
      | Flight.Alloc_large | Flight.Free_large -> ls)
    { (idle_lane lane) with ls_entries = entries }
    entries

let classify_lane ls =
  if ls.ls_held > 0 then Holding_stripes
  else if ls.ls_drain then Mid_ring_drain
  else if ls.ls_depth > 0 then Mid_crossing
  else Idle

(* ---- report ------------------------------------------------------------ *)

type check = { ck_name : string; ck_ok : bool; ck_detail : string }

type report = {
  f_class : classification;
  f_victim : int;  (** guilty lane, -1 when nothing died *)
  f_noted : bool;  (** victim identified by death note vs heuristic *)
  f_op : int;
  f_tenant : int;
  f_depth : int;
  f_held : int;
  f_stripes : int list;
  f_conn : int;
  f_msgs : int;
  f_torn : int list;  (** lanes with torn head records — must be [] *)
  f_lanes : lane_state list;  (** every lane with surviving records *)
  f_checks : check list;
  f_heap : (string * string) list;
  f_traces : Flight.trace_snap list;
}

let analyze ?(heap = []) ?(checks = []) () =
  let states = List.init Flight.lanes lane_state in
  let noted = Flight.victim_lane () in
  let victim =
    if noted >= 0 && noted < Flight.lanes then Some (List.nth states noted)
    else
      (* No death note (e.g. a hard kill outside the simulator):
         fall back to the guiltiest lane — highest classification
         rank, latest surviving stamp breaking ties. *)
      List.fold_left
        (fun best ls ->
          let r = class_rank (classify_lane ls) in
          match best with
          | Some b
            when class_rank (classify_lane b) > r
                 || (class_rank (classify_lane b) = r
                     && b.ls_last_stamp >= ls.ls_last_stamp) ->
            best
          | _ -> if r > 0 then Some ls else best)
        None states
  in
  let v = match victim with Some ls -> ls | None -> idle_lane (-1) in
  { f_class = (match victim with Some ls -> classify_lane ls | None -> Idle);
    f_victim = v.ls_lane;
    f_noted = noted >= 0;
    f_op = v.ls_op;
    f_tenant = v.ls_tenant;
    f_depth = v.ls_depth;
    f_held = v.ls_held;
    f_stripes = List.sort_uniq compare v.ls_stripes;
    f_conn = v.ls_conn;
    f_msgs = v.ls_msgs;
    f_torn = Flight.torn_lanes ();
    f_lanes = List.filter (fun ls -> ls.ls_entries <> []) states;
    f_checks = checks;
    f_heap = heap;
    f_traces = Flight.dump_traces () }

(** Structural soundness: the publish-last protocol held (no torn
    head records), a non-idle classification names its lane, and
    every repaired-state cross-check agrees with the story. *)
let well_formed r =
  r.f_torn = []
  && (r.f_class = Idle || r.f_victim >= 0)
  && List.for_all (fun c -> c.ck_ok) r.f_checks

(* ---- rendering --------------------------------------------------------- *)

let verdict r =
  match r.f_class with
  | Idle -> "idle: no in-flight work at the recorded instant"
  | Mid_crossing ->
    Printf.sprintf "killed mid-crossing (depth %d) during op '%s'" r.f_depth
      (op_name r.f_op)
  | Holding_stripes ->
    Printf.sprintf "killed holding %d stripe%s during op '%s'" r.f_held
      (if r.f_held = 1 then "" else "s")
      (op_name r.f_op)
  | Mid_ring_drain ->
    Printf.sprintf "killed mid-ring-drain (conn %d, %d msg window)" r.f_conn
      r.f_msgs

let render ?tenant_name r =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "=== doctor: post-mortem forensic report ===\n";
  pf "classification: %s\n" (class_name r.f_class);
  pf "verdict: %s\n" (verdict r);
  pf "victim lane: %s%s\n"
    (if r.f_victim >= 0 then string_of_int r.f_victim else "none")
    (if r.f_noted then " (death note)"
     else if r.f_victim >= 0 then " (heuristic)"
     else "");
  if r.f_op > 0 then pf "victim op: %s\n" (op_name r.f_op);
  if r.f_tenant >= 0 then
    pf "tenant: %s\n"
      (match tenant_name with
       | Some f -> f r.f_tenant
       | None -> Printf.sprintf "slot %d" r.f_tenant);
  if r.f_held > 0 then begin
    pf "stripes held: %d" r.f_held;
    if r.f_stripes <> [] then
      pf " (known: %s)"
        (String.concat "," (List.map string_of_int r.f_stripes));
    pf "\n"
  end;
  if r.f_conn >= 0 then pf "ring conn: %d\n" r.f_conn;
  pf "torn records: %d lane(s)%s\n" (List.length r.f_torn)
    (if r.f_torn = [] then "" else " <- PUBLISH PROTOCOL VIOLATED");
  pf "--- recovery cross-checks ---\n";
  if r.f_checks = [] then pf "(none run)\n"
  else
    List.iter
      (fun c ->
        pf "[%s] %-24s %s\n" (if c.ck_ok then "ok" else "FAIL") c.ck_name
          c.ck_detail)
      r.f_checks;
  if r.f_heap <> [] then begin
    pf "--- heap at death ---\n";
    List.iter (fun (k, v) -> pf "%-28s %s\n" k v) r.f_heap
  end;
  if r.f_traces <> [] then begin
    pf "--- pre-crash trace tail ---\n";
    List.iter
      (fun (t : Flight.trace_snap) ->
        pf "[%8d ns] #%d sev%d %s\n" t.t_at t.t_seq t.t_sev t.t_msg)
      r.f_traces
  end;
  pf "--- timelines (%d lane%s with records) ---\n" (List.length r.f_lanes)
    (if List.length r.f_lanes = 1 then "" else "s");
  List.iter
    (fun ls ->
      pf "lane %d (%s): %d record%s\n" ls.ls_lane
        (class_name (classify_lane ls))
        (List.length ls.ls_entries)
        (if List.length ls.ls_entries = 1 then "" else "s");
      List.iter
        (fun (e : Flight.entry) ->
          pf "  [%8d ns] #%-4d %-16s a=%d b=%d c=%d\n" e.e_stamp e.e_pos
            (Flight.kind_name e.e_kind) e.e_a e.e_b e.e_c)
        ls.ls_entries)
    r.f_lanes;
  pf "=== end doctor report ===\n";
  Buffer.contents b

(** Flat key/value surface for [stats forensics] over both codecs. *)
let kvs r =
  [ ("forensics_class", class_name r.f_class);
    ("forensics_verdict", verdict r);
    ("forensics_victim_lane", string_of_int r.f_victim);
    ("forensics_noted", if r.f_noted then "1" else "0");
    ("forensics_op", op_name r.f_op);
    ("forensics_tenant", string_of_int r.f_tenant);
    ("forensics_depth", string_of_int r.f_depth);
    ("forensics_stripes_held", string_of_int r.f_held);
    ("forensics_ring_conn", string_of_int r.f_conn);
    ("forensics_torn_lanes", string_of_int (List.length r.f_torn));
    ("forensics_lanes_with_records", string_of_int (List.length r.f_lanes));
    ("forensics_well_formed", if well_formed r then "1" else "0") ]
  @ List.map
      (fun c -> ("forensics_check_" ^ c.ck_name, if c.ck_ok then "1" else "0"))
      r.f_checks
