(** Result rows, order statistics, and the small JSON reader/writer the
    ledger and the compare step share. *)

type kind = E2e | Layer

type clock = Virtual | Host | Count
(** [Virtual]: modeled nanoseconds, deterministic per seed. [Host]:
    CPU time or memory of the simulator process itself, noisy.
    [Count]: event counts and ratios of them, deterministic per seed. *)

type origin = Calibrated | Emergent
(** [Calibrated]: the value is a [Cost_model] constant times a count,
    so it moves only when the constants or the counts do.
    [Emergent]: everything else (waits, contention, host time). *)

type row = {
  workload : string;
  metric : string;
  value : float;
  unit_ : string;
  kind : kind;
  clock : clock;
  origin : origin;
  note : string;  (** sample counts behind a percentile, or "" *)
  samples : float list;  (** per-repetition values of a host row *)
}

let row ?(origin = Emergent) ?(note = "") ~workload ~kind ~clock metric unit_
    value =
  { workload; metric; value; unit_; kind; clock; origin; note; samples = [] }

let kind_name = function E2e -> "e2e" | Layer -> "layer"

let clock_name = function
  | Virtual -> "virtual"
  | Host -> "host"
  | Count -> "count"

let origin_name = function Calibrated -> "calibrated" | Emergent -> "emergent"

(* Rows the ledger keeps (and compare judges, seed for seed) but the
   regression contract in BENCHMARK.json does not gate, because that
   contract compares runs across seeds. Virtual medians and tails are
   sums of cost-model constants, so on some workloads they read the
   same for every seed; the means carry the latency there. The ring
   ladder rows exist on one workload only, and fail_frac is 0 by
   construction (failures travel as failed/attempted). *)
let ledger_only metric =
  List.mem metric
    [ "get_p50_us"; "get_p999_us"; "set_p50_us"; "set_p999_us"; "fail_frac";
      "max_kops_at_slo"; "idle_get_p50_us" ]
  || String.starts_with ~prefix:"ladder." metric

(* Deterministic rows must agree bit for bit between repetitions, seeds
   held equal; host rows are summarised by their median. *)
let deterministic r = r.clock <> Host

(* ---- Order statistics --------------------------------------------------- *)

(* Nearest-rank percentile of a sorted array: the smallest sample with
   at least [p]% of the samples at or below it. *)
let rank n p =
  let r = int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9)) - 1 in
  max 0 (min (n - 1) r)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(rank n p)

(* The tail percentile a sample supports: p99.9 when at least ten
   samples lie beyond it, else the highest percentile that keeps ten
   beyond (a scaled-down run has too few samples for p99.9). *)
let tail_pct n =
  if n <= 10 then 0.0
  else Float.min 99.9 (100.0 *. (1.0 -. (10.0 /. float_of_int n)))

let beyond n p = n - 1 - rank n p

(* Nearest-rank percentile of a float sample. *)
let fpercentile xs p =
  let a = Array.of_list (List.sort compare xs) in
  if a = [||] then nan else a.(rank (Array.length a) p)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles as Python's statistics.quantiles(xs, n=4) computes them
   (the "exclusive" method), so spreads read the same everywhere. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* ---- Reading /proc ------------------------------------------------------ *)

(* Peak resident set of this process, MB (Linux [VmHWM]). *)
let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  scan ()

(* ---- Model fingerprint ------------------------------------------------- *)

(* Digest of every constant virtual time is computed from. Two ledgers
   with different fingerprints ran different cost models, so their
   virtual numbers are not comparable. *)
let model_fingerprint () =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (Platform.Cost_model.current, Vm.Config.default) []))

(* ---- JSON ---------------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the float carries: the shortest form that reads back
   exactly. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num v -> json_number v
  | Str s -> json_string s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> json_string k ^ ": " ^ to_string v) l)
    ^ "}"

exception Bad_json of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Bad_json (Printf.sprintf "%s at byte %d" m !pos)) in
  let rec ws () =
    if !pos < n && String.contains " \n\r\t" s.[!pos] then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let lit w v =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then (pos := !pos + String.length w; v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'u' ->
           if !pos + 4 > n then fail "bad \\u escape";
           let code = int_of_string ("0x" ^ String.sub s !pos 4) in
           pos := !pos + 4;
           Buffer.add_char b (Char.chr (code land 0xff))
         | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          let k = str () in
          expect ':';
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false)
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some v -> Num v
       | None -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing bytes";
  v

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let member k = function
  | Obj l -> ( match List.assoc_opt k l with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []

let to_str = function Str s -> s | _ -> raise (Bad_json "expected a string")

let to_num = function Num v -> v | _ -> raise (Bad_json "expected a number")

(* ---- Rows as JSON ---------------------------------------------------------- *)

let row_json r =
  Obj
    ([ ("workload", Str r.workload); ("metric", Str r.metric);
       ("value", Num r.value); ("unit", Str r.unit_);
       ("kind", Str (kind_name r.kind)); ("clock", Str (clock_name r.clock));
       ("origin", Str (origin_name r.origin)) ]
    @ (if r.note = "" then [] else [ ("note", Str r.note) ])
    @
    if r.samples = [] then []
    else [ ("samples", Arr (List.map (fun v -> Num v) r.samples)) ])

let row_of_json j =
  let s k = to_str (member k j) in
  { workload = s "workload"; metric = s "metric";
    value = to_num (member "value" j); unit_ = s "unit";
    kind = (match s "kind" with "e2e" -> E2e | _ -> Layer);
    clock =
      (match s "clock" with
       | "virtual" -> Virtual
       | "host" -> Host
       | _ -> Count);
    origin = (match s "origin" with "calibrated" -> Calibrated | _ -> Emergent);
    note = (match member "note" j with Str n -> n | _ -> "");
    samples = List.map to_num (to_list (member "samples" j)) }

(* The human line: [workload metric value unit], then the tags. *)
let render r =
  Printf.sprintf "%-15s %-40s %s %s  [%s %s %s]%s" r.workload r.metric
    (json_number r.value) r.unit_ (kind_name r.kind) (clock_name r.clock)
    (origin_name r.origin)
    (if r.note = "" then "" else "  " ^ r.note)
