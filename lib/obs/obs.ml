module Clock = Repro_sim.Clock

type value = Int of int | Float of float | Str of string | Bool of bool
type attr = string * value
type phase = B | E | I | X

type event = {
  ph : phase;
  ev_name : string;
  span : int;
  parent : int;
  ts : int;
  dur : int;
  attrs : attr list;
}

type metric =
  | Counter of { mutable total : int }
  | Gauge of { mutable g : float }
  | Histogram of {
      buckets : int array;
      mutable n : int;
      mutable sum : int;
      mutable vmax : int;
    }

type open_span = { os_id : int; os_name : string; mutable os_attrs : attr list }

type ser = { mutable pts : (int * float) list (* newest first, ts in us *) }

(* The derived device series as of [dm_nevs] events: busy microseconds
   per bin under each dev.<device>.busy name, by name and in
   nat_compare order. *)
type dev_memo = {
  dm_nevs : int;
  dm_width : float; (* bin width, microseconds *)
  dm_busy : (string, float array) Hashtbl.t;
  dm_sorted : (string * float array) list;
}

type t = {
  clock : Clock.t option;
  mutable on : bool;
  mutable io_us : float;
  mutable next_id : int;
  mutable evs : event list; (* newest first *)
  mutable nevs : int;
  mutable stack : open_span list; (* innermost first *)
  mutable unbalanced_ends : int;
  metrics : (string, metric) Hashtbl.t;
  ser_tbl : (string, ser) Hashtbl.t;
  mutable dev_memo : dev_memo option;
}

let create ?clock ?(enabled = true) () =
  {
    clock;
    on = enabled;
    io_us = 0.0;
    next_id = 0;
    evs = [];
    nevs = 0;
    stack = [];
    unbalanced_ends = 0;
    metrics = Hashtbl.create 64;
    ser_tbl = Hashtbl.create 16;
    dev_memo = None;
  }

(* Natural (numeric-aware) string order: digit runs compare as numbers,
   so scheduler.drive2.* sorts before scheduler.drive10.*. Used wherever
   metric or series names are listed. *)
let nat_compare a b =
  let la = String.length a and lb = String.length b in
  let is_digit c = c >= '0' && c <= '9' in
  let rec go i j =
    if i >= la && j >= lb then 0
    else if i >= la then -1
    else if j >= lb then 1
    else
      let ca = a.[i] and cb = b.[j] in
      if is_digit ca && is_digit cb then begin
        let ei = ref i and ej = ref j in
        while !ei < la && is_digit a.[!ei] do incr ei done;
        while !ej < lb && is_digit b.[!ej] do incr ej done;
        (* skip leading zeros (keep one digit so "0" survives) *)
        let si = ref i and sj = ref j in
        while !si < !ei - 1 && a.[!si] = '0' do incr si done;
        while !sj < !ej - 1 && b.[!sj] = '0' do incr sj done;
        let na = !ei - !si and nb = !ej - !sj in
        if na <> nb then compare na nb
        else
          let c = compare (String.sub a !si na) (String.sub b !sj nb) in
          if c <> 0 then c
          else if !ei - i <> !ej - j then compare (!ei - i) (!ej - j)
          else go !ei !ej
      end
      else if ca <> cb then compare ca cb
      else go (i + 1) (j + 1)
  in
  go 0 0

let enable t b = t.on <- b

(* ------------------------------------------------------------------ *)
(* Arming                                                              *)

let current : t option ref = ref None
let arm t = current := Some t
let disarm () = current := None
let armed () = !current

let with_armed t f =
  let prev = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := prev) f

(* The hot-path check: every instrumentation point below starts with
   [active ()]; the disarmed (or armed-but-disabled) cost is this load
   and branch, nothing more. *)
let active () =
  match !current with
  | Some t when t.on -> Some t
  | Some _ | None -> None

let enabled () = match active () with Some _ -> true | None -> false

(* ------------------------------------------------------------------ *)
(* Virtual time                                                        *)

let now_us t =
  let base = match t.clock with Some c -> Clock.now c *. 1e6 | None -> 0.0 in
  Float.to_int (base +. t.io_us)

(* Self-profiling hooks (host wall clock, never simulated time): the
   probe sits inside the armed-and-enabled branches only, so the
   obs-off fast path is untouched. *)
let p_record = Repro_prof.Prof.probe "obs.record"
let c_hooks = Repro_prof.Prof.counter "obs.hook_invocations"

let push t ev =
  let tok = Repro_prof.Prof.enter p_record in
  t.evs <- ev :: t.evs;
  t.nevs <- t.nevs + 1;
  Repro_prof.Prof.leave tok;
  Repro_prof.Prof.bump c_hooks

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let begin_span t ~attrs name =
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  let parent = match t.stack with s :: _ -> s.os_id | [] -> 0 in
  t.stack <- { os_id = id; os_name = name; os_attrs = [] } :: t.stack;
  push t { ph = B; ev_name = name; span = id; parent; ts = now_us t; dur = 0; attrs };
  id

(* Span attributes accumulate newest-first on the fast path (annotate
   is a single rev_append of the new attrs), so closing the span is one
   rev_append instead of the reference's reverse-then-reverse-append.
   Both orders denote the same logical list; the reference transcription
   of the pre-optimization code keeps them honest (Repro_util.Refpath:
   under it annotate appends in order and end_one double-reverses). *)
let[@inline never] end_attrs_reference stored extra =
  List.rev_append (List.rev stored) extra

let end_one t s extra =
  let attrs =
    if Repro_util.Refpath.enabled () then end_attrs_reference s.os_attrs extra
    else List.rev_append s.os_attrs extra
  in
  push t
    {
      ph = E;
      ev_name = s.os_name;
      span = s.os_id;
      parent = 0;
      ts = now_us t;
      dur = 0;
      attrs;
    }

let end_span t ~attrs id =
  if List.exists (fun s -> s.os_id = id) t.stack then begin
    (* Close abandoned inner spans first so B/E events stay balanced. *)
    let rec unwind = function
      | s :: rest when s.os_id <> id ->
        end_one t s [ ("abandoned", Bool true) ];
        unwind rest
      | s :: rest ->
        end_one t s attrs;
        rest
      | [] -> []
    in
    t.stack <- unwind t.stack
  end
  else t.unbalanced_ends <- t.unbalanced_ends + 1

let span_begin ?(attrs = []) name =
  match active () with None -> 0 | Some t -> begin_span t ~attrs name

let span_end ?(attrs = []) id =
  if id <> 0 then
    match active () with None -> () | Some t -> end_span t ~attrs id

let with_span ?(attrs = []) name f =
  match active () with
  | None -> f ()
  | Some t -> (
    let id = begin_span t ~attrs name in
    match f () with
    | v ->
      span_end id;
      v
    | exception e ->
      span_end ~attrs:[ ("error", Str (Printexc.to_string e)) ] id;
      raise e)

let observe name f = with_span name f

let[@inline never] annotate_reference s attrs =
  s.os_attrs <- s.os_attrs @ attrs

let annotate attrs =
  match active () with
  | None -> ()
  | Some t -> (
    match t.stack with
    | s :: _ ->
      if Repro_util.Refpath.enabled () then annotate_reference s attrs
      else s.os_attrs <- List.rev_append attrs s.os_attrs
    | [] -> ())

let current_span () =
  match active () with
  | None -> 0
  | Some t -> ( match t.stack with s :: _ -> s.os_id | [] -> 0)

let instant ?(attrs = []) name =
  match active () with
  | None -> ()
  | Some t ->
    let span = match t.stack with s :: _ -> s.os_id | [] -> 0 in
    push t { ph = I; ev_name = name; span; parent = 0; ts = now_us t; dur = 0; attrs }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and n = ref v in
    while !n > 0 do
      incr b;
      n := !n lsr 1
    done;
    !b
  end

let bucket_lo k = if k <= 0 then 0 else 1 lsl (k - 1)

let counter_on t name n =
  Repro_prof.Prof.bump c_hooks;
  match Hashtbl.find_opt t.metrics name with
  | Some (Counter c) -> c.total <- c.total + n
  | Some _ -> ()
  | None -> Hashtbl.add t.metrics name (Counter { total = n })

let hist_on t name v =
  Repro_prof.Prof.bump c_hooks;
  let tok = Repro_prof.Prof.enter p_record in
  let m =
    match Hashtbl.find_opt t.metrics name with
    | Some m -> m
    | None ->
      let m = Histogram { buckets = Array.make 64 0; n = 0; sum = 0; vmax = min_int } in
      Hashtbl.add t.metrics name m;
      m
  in
  (match m with
  | Histogram h ->
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum + v;
    if v > h.vmax then h.vmax <- v
  | Counter _ | Gauge _ -> ());
  Repro_prof.Prof.leave tok

let count name n =
  match active () with None -> () | Some t -> counter_on t name n

let set_gauge name v =
  match active () with
  | None -> ()
  | Some t -> (
    match Hashtbl.find_opt t.metrics name with
    | Some (Gauge g) -> g.g <- v
    | Some _ -> ()
    | None -> Hashtbl.add t.metrics name (Gauge { g = v }))

let hist name v =
  match active () with None -> () | Some t -> hist_on t name v

let advance secs =
  match active () with
  | None -> ()
  | Some t -> t.io_us <- t.io_us +. (secs *. 1e6)

(* The derived metric names for an op are interned: [io] runs once per
   simulated device operation, and without this each call allocates the
   same three strings again. *)
let io_names : (string, string * string * string) Hashtbl.t = Hashtbl.create 16

let io_name_triple op =
  match Hashtbl.find_opt io_names op with
  | Some names -> names
  | None ->
    let names = (op ^ ".ops", op ^ ".bytes", op ^ ".latency_us") in
    Hashtbl.add io_names op names;
    names

let io ~op ~device ?(addr = -1) ~bytes dur_s =
  match active () with
  | None -> ()
  | Some t ->
    let span = match t.stack with s :: _ -> s.os_id | [] -> 0 in
    let dur = Float.to_int (dur_s *. 1e6) in
    let attrs =
      let base = [ ("device", Str device); ("bytes", Int bytes) ] in
      if addr >= 0 then ("addr", Int addr) :: base else base
    in
    push t { ph = X; ev_name = op; span; parent = 0; ts = now_us t; dur; attrs };
    t.io_us <- t.io_us +. (dur_s *. 1e6);
    let ops_name, bytes_name, lat_name = io_name_triple op in
    counter_on t ops_name 1;
    counter_on t bytes_name bytes;
    hist_on t lat_name dur

let sample ?at name v =
  match active () with
  | None -> ()
  | Some t ->
    let ts =
      match at with Some s -> Float.to_int (s *. 1e6) | None -> now_us t
    in
    Repro_prof.Prof.bump c_hooks;
    let s =
      match Hashtbl.find_opt t.ser_tbl name with
      | Some s -> s
      | None ->
        let s = { pts = [] } in
        Hashtbl.add t.ser_tbl name s;
        s
    in
    s.pts <- (ts, v) :: s.pts

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)

let events t = List.rev t.evs
let open_spans t = List.length t.stack
let unbalanced t = t.unbalanced_ends

let counter_value t name =
  match Hashtbl.find_opt t.metrics name with Some (Counter c) -> c.total | _ -> 0

let gauge_value t name =
  match Hashtbl.find_opt t.metrics name with Some (Gauge g) -> Some g.g | _ -> None

let hist_stats t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Histogram h) -> Some (h.n, h.sum, if h.n = 0 then 0 else h.vmax)
  | _ -> None

let hist_buckets t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Histogram h) ->
    let acc = ref [] in
    for k = Array.length h.buckets - 1 downto 0 do
      if h.buckets.(k) > 0 then acc := (k, h.buckets.(k)) :: !acc
    done;
    !acc
  | _ -> []

(* Percentile estimate inside log2 buckets: find the bucket holding the
   rank, interpolate linearly within [bucket_lo k, bucket_lo (k+1)), and
   clamp to the exact observed maximum. Bucket 0 (values <= 0) maps to
   0. Exact for constant distributions; within one bucket otherwise. *)
let percentile_of buckets n sum vmax q =
  if n = 0 then 0.0
  else if
    (* sum = n * vmax forces every value to equal the max (nothing can
       exceed it): the distribution is constant, every quantile exact. *)
    (vmax = 0 || Int.abs vmax <= max_int / n) && sum = n * vmax
  then Float.of_int vmax
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. Float.of_int n in
    let est = ref (Float.of_int vmax) and cum = ref 0 and k = ref 0 and stop = ref false in
    while (not !stop) && !k < Array.length buckets do
      let c = buckets.(!k) in
      if c > 0 && Float.of_int (!cum + c) >= rank then begin
        let lo = Float.of_int (bucket_lo !k) in
        let hi = if !k = 0 then 0.0 else Float.of_int (bucket_lo (!k + 1)) in
        let frac = (rank -. Float.of_int !cum) /. Float.of_int c in
        est := lo +. ((hi -. lo) *. frac);
        stop := true
      end;
      cum := !cum + c;
      incr k
    done;
    (* Clamp into the observed range. Bucket 0 pools every value <= 0 and
       estimates it as 0.0, which overestimates an all-negative
       histogram; when vmax < 0 clamp down to vmax so this path agrees
       with the constant-distribution fast path above. *)
    let lo_clamp = Float.min 0.0 (Float.of_int vmax) in
    Float.max lo_clamp (Float.min !est (Float.of_int vmax))
  end

let hist_percentile t name q =
  match Hashtbl.find_opt t.metrics name with
  | Some (Histogram h) when h.n > 0 -> Some (percentile_of h.buckets h.n h.sum h.vmax q)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Series                                                              *)

let series_bins = 64

(* Fixed-interval per-device busy-fraction timelines derived from the
   recorded X (device op) events: the device layers' Obs.io calls are
   the sampling hook. Retry backoff X events are idle waiting, not
   device occupancy, so they are excluded. Events are only ever
   appended, so the derivation is built at most once per event count
   and kept in the plane; the bins are accumulated in emission order,
   which fixes the float sums. *)
let build_dev_memo t =
  let is_busy e =
    e.ph = X && e.dur > 0
    && not (String.length e.ev_name >= 6 && String.sub e.ev_name 0 6 = "retry.")
  in
  let xs = List.rev (List.filter is_busy t.evs) in
  let tend = List.fold_left (fun acc e -> Stdlib.max acc (e.ts + e.dur)) 0 xs in
  let by_device = Hashtbl.create 8 in
  let w = Float.of_int tend /. Float.of_int series_bins in
  if tend > 0 then
    List.iter
      (fun e ->
        let device =
          match List.assoc_opt "device" e.attrs with
          | Some (Str d) -> d
          | _ -> "unknown"
        in
        let arr =
          match Hashtbl.find_opt by_device device with
          | Some a -> a
          | None ->
            let a = Array.make series_bins 0.0 in
            Hashtbl.add by_device device a;
            a
        in
        let t0 = Float.of_int e.ts and t1 = Float.of_int (e.ts + e.dur) in
        let b0 = Stdlib.max 0 (Float.to_int (t0 /. w))
        and b1 = Stdlib.min (series_bins - 1) (Float.to_int ((t1 -. 1e-9) /. w)) in
        for bin = b0 to b1 do
          let lo = w *. Float.of_int bin and hi = w *. Float.of_int (bin + 1) in
          let ov = Float.min hi t1 -. Float.max lo t0 in
          if ov > 0.0 then arr.(bin) <- arr.(bin) +. ov
        done)
      xs;
  let busy = Hashtbl.create (Hashtbl.length by_device) in
  Hashtbl.iter
    (fun device arr -> Hashtbl.add busy (Printf.sprintf "dev.%s.busy" device) arr)
    by_device;
  let sorted =
    Hashtbl.fold (fun n a acc -> (n, a) :: acc) busy []
    |> List.sort (fun (a, _) (b, _) -> nat_compare a b)
  in
  { dm_nevs = t.nevs; dm_width = w; dm_busy = busy; dm_sorted = sorted }

let dev_memo t =
  match t.dev_memo with
  | Some m when m.dm_nevs = t.nevs -> m
  | Some _ | None ->
    let m = build_dev_memo t in
    t.dev_memo <- Some m;
    m

let dev_points m busy =
  let w = m.dm_width in
  List.init series_bins (fun bin ->
      (w *. Float.of_int bin /. 1e6, Float.min 1.0 (busy.(bin) /. w)))

let recorded_points s =
  List.rev_map (fun (ts, v) -> (Float.of_int ts /. 1e6, v)) s.pts

(* Only a dev.<device>.busy name can be derived; any other miss is
   answered without touching the events. *)
let derivable name =
  let n = String.length name in
  n >= 9 && String.sub name 0 4 = "dev." && String.sub name (n - 5) 5 = ".busy"

let series t name =
  match Hashtbl.find_opt t.ser_tbl name with
  | Some s -> recorded_points s
  | None when derivable name -> (
    let m = dev_memo t in
    match Hashtbl.find_opt m.dm_busy name with
    | Some busy -> dev_points m busy
    | None -> [])
  | None -> []

(* Every series in nat_compare order, each with a thunk for its points.
   A recorded series lists before a derived one of the same name (both
   are listed; a lookup by name finds the recorded one). *)
let listing t =
  let m = dev_memo t in
  let recorded =
    Hashtbl.fold
      (fun name s acc -> (name, fun () -> recorded_points s) :: acc)
      t.ser_tbl []
    |> List.sort (fun (a, _) (b, _) -> nat_compare a b)
  in
  let derived =
    List.map (fun (name, busy) -> (name, fun () -> dev_points m busy)) m.dm_sorted
  in
  List.merge (fun (a, _) (b, _) -> nat_compare a b) recorded derived

let series_names t = List.map fst (listing t)

let all_series t = List.map (fun (name, points) -> (name, points ())) (listing t)

(* A cut given in seconds rounds to the nearest microsecond: a point's
   own time, read back as ts / 1e6, can land a hair below ts when
   multiplied out again, and truncating it would skip the point. *)
let us_of_s s = Float.to_int (Float.round (s *. 1e6))

(* Points live newest-first, so the latest point (or the latest at or
   before a cutoff) is reachable without materializing the series. *)
let series_last t ?at name =
  match Hashtbl.find_opt t.ser_tbl name with
  | None -> None
  | Some s ->
    let cut = match at with Some a -> us_of_s a | None -> max_int in
    let rec newest = function
      | [] -> None
      | (ts, v) :: rest ->
        if ts <= cut then Some (Float.of_int ts /. 1e6, v) else newest rest
    in
    newest s.pts

let series_since t ~t0 name =
  match Hashtbl.find_opt t.ser_tbl name with
  | None -> []
  | Some s ->
    let lo = us_of_s t0 in
    let rec collect acc = function
      | (ts, v) :: rest when ts >= lo ->
        collect ((Float.of_int ts /. 1e6, v) :: acc) rest
      | _ -> acc
    in
    collect [] s.pts

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let value_json = function
  | Int i -> string_of_int i
  (* %.6g would render nan/inf bare, which is not JSON. *)
  | Float f -> if Float.is_finite f then Printf.sprintf "%.6g" f else "null"
  | Str s -> "\"" ^ json_escape s ^ "\""
  | Bool b -> if b then "true" else "false"

let args_json b extra attrs =
  Buffer.add_string b "{";
  let first = ref true in
  let field (k, v) =
    if not !first then Buffer.add_string b ",";
    first := false;
    Buffer.add_string b "\"";
    Buffer.add_string b (json_escape k);
    Buffer.add_string b "\":";
    Buffer.add_string b (value_json v)
  in
  List.iter field extra;
  List.iter field attrs;
  Buffer.add_string b "}"

(* Lane (Perfetto thread track) assignment: a span carrying a [drive]
   attr gets a per-drive lane, else a nonempty [host] attr a per-host
   lane, else it inherits its parent's lane; instants and device ops
   render on their enclosing span's lane. Tids are dense, assigned in
   first-appearance order with "main" as tid 1, and named via
   [thread_name] metadata events. *)
let assign_lanes evs =
  let lane_tid = Hashtbl.create 8 in
  let lane_order = ref [] in
  let tid_of lane =
    match Hashtbl.find_opt lane_tid lane with
    | Some id -> id
    | None ->
      let id = Hashtbl.length lane_tid + 1 in
      Hashtbl.add lane_tid lane id;
      lane_order := lane :: !lane_order;
      id
  in
  ignore (tid_of "main");
  let span_lane = Hashtbl.create 64 in
  let tids =
    List.map
      (fun ev ->
        match ev.ph with
        | B ->
          let inherited =
            match Hashtbl.find_opt span_lane ev.parent with
            | Some l -> l
            | None -> "main"
          in
          let lane =
            match List.assoc_opt "drive" ev.attrs with
            | Some (Int d) -> Printf.sprintf "drive %d" d
            | _ -> (
              match List.assoc_opt "host" ev.attrs with
              | Some (Str h) when h <> "" -> "host " ^ h
              | _ -> inherited)
          in
          Hashtbl.replace span_lane ev.span lane;
          tid_of lane
        | E | I | X -> (
          match Hashtbl.find_opt span_lane ev.span with
          | Some l -> tid_of l
          | None -> tid_of "main"))
      evs
  in
  (List.rev !lane_order, tids)

let chrome_trace t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b line
  in
  let evs = events t in
  let lanes, tids = assign_lanes evs in
  List.iteri
    (fun tid0 lane ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           (tid0 + 1) (json_escape lane)))
    lanes;
  List.iter2
    (fun ev tid ->
      let ph, extra =
        match ev.ph with
        | B -> ("B", [ ("span", Int ev.span); ("parent", Int ev.parent) ])
        | E -> ("E", [ ("span", Int ev.span) ])
        | I -> ("i", [ ("span", Int ev.span) ])
        | X -> ("X", [ ("span", Int ev.span) ])
      in
      let line = Buffer.create 128 in
      Buffer.add_string line
        (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%d"
           (json_escape ev.ev_name) ph tid ev.ts);
      if ev.ph = X then Buffer.add_string line (Printf.sprintf ",\"dur\":%d" ev.dur);
      if ev.ph = I then Buffer.add_string line ",\"s\":\"t\"";
      Buffer.add_string line ",\"args\":";
      args_json line extra ev.attrs;
      Buffer.add_string line "}";
      emit (Buffer.contents line))
    evs tids;
  (* Utilization and busy-fraction timelines as Perfetto counter tracks. *)
  List.iter
    (fun (name, pts) ->
      List.iter
        (fun (ts_s, v) ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%d,\"args\":{\"value\":%s}}"
               (json_escape name)
               (Float.to_int (ts_s *. 1e6))
               (value_json (Float v))))
        pts)
    (all_series t);
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"backup_repro obs\"}}\n";
  Buffer.contents b

let sorted_metrics t =
  List.sort
    (fun (a, _) (b, _) -> nat_compare a b)
    (Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.metrics [])

let metrics_jsonl t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, m) ->
      (match m with
      | Counter c ->
        Buffer.add_string b
          (Printf.sprintf "{\"name\":\"%s\",\"type\":\"counter\",\"value\":%d}"
             (json_escape name) c.total)
      | Gauge g ->
        Buffer.add_string b
          (Printf.sprintf "{\"name\":\"%s\",\"type\":\"gauge\",\"value\":%s}"
             (json_escape name)
             (value_json (Float g.g)))
      | Histogram h ->
        let pct q =
          if h.n = 0 then "0" else value_json (Float (percentile_of h.buckets h.n h.sum h.vmax q))
        in
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"%s\",\"type\":\"histogram\",\"count\":%d,\"sum\":%d,\"max\":%d,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"buckets\":["
             (json_escape name) h.n h.sum
             (if h.n = 0 then 0 else h.vmax)
             (pct 0.5) (pct 0.95) (pct 0.99));
        let first = ref true in
        Array.iteri
          (fun k c ->
            if c > 0 then begin
              if not !first then Buffer.add_string b ",";
              first := false;
              Buffer.add_string b (Printf.sprintf "[%d,%d]" k c)
            end)
          h.buckets;
        Buffer.add_string b "]}");
      Buffer.add_string b "\n")
    (sorted_metrics t);
  Buffer.contents b

let series_jsonl t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, pts) ->
      Buffer.add_string b
        (Printf.sprintf "{\"name\":\"%s\",\"type\":\"series\",\"points\":["
           (json_escape name));
      let first = ref true in
      List.iter
        (fun (ts_s, v) ->
          if not !first then Buffer.add_string b ",";
          first := false;
          Buffer.add_string b
            (Printf.sprintf "[%s,%s]" (value_json (Float ts_s)) (value_json (Float v))))
        pts;
      Buffer.add_string b "]}\n")
    (all_series t);
  Buffer.contents b

let pp_summary ppf t =
  let spans = List.length (List.filter (fun e -> e.ph = B) (events t)) in
  Format.fprintf ppf "obs plane: %d events (%d spans), %d open, %d unbalanced ends@."
    t.nevs spans (open_spans t) (unbalanced t);
  let counters, gauges, hists =
    List.fold_left
      (fun (cs, gs, hs) (name, m) ->
        match m with
        | Counter c -> ((name, c.total) :: cs, gs, hs)
        | Gauge g -> (cs, (name, g.g) :: gs, hs)
        | Histogram h ->
          let pct q = if h.n = 0 then 0.0 else percentile_of h.buckets h.n h.sum h.vmax q in
          ( cs,
            gs,
            ( name,
              ( h.n,
                h.sum,
                (if h.n = 0 then 0 else h.vmax),
                pct 0.5,
                pct 0.95,
                pct 0.99 ) )
            :: hs ))
      ([], [], []) (sorted_metrics t)
  in
  if counters <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-32s %12d@." name v)
      (List.rev counters)
  end;
  if gauges <> [] then begin
    Format.fprintf ppf "gauges:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-32s %12.2f@." name v)
      (List.rev gauges)
  end;
  if hists <> [] then begin
    Format.fprintf ppf "histograms: %-20s %8s %14s %12s %10s %10s %10s@." ""
      "count" "sum" "max" "p50" "p95" "p99";
    List.iter
      (fun (name, (n, sum, vmax, p50, p95, p99)) ->
        Format.fprintf ppf "  %-30s %8d %14d %12d %10.0f %10.0f %10.0f@." name n
          sum vmax p50 p95 p99)
      (List.rev hists)
  end
