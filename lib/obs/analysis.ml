(* Trace analysis: turn a recorded obs plane into the diagnosis behind
   the paper's tables — which resource gated the run, through which
   parts the elapsed time flowed, what each device was doing when. Pure
   function of the trace: identical seeds, identical report bytes. *)

type verdict =
  | Tape_limited
  | Disk_limited
  | Cpu_limited
  | Wire_limited
  | Balanced

let verdict_to_string = function
  | Tape_limited -> "tape-limited"
  | Disk_limited -> "disk-limited"
  | Cpu_limited -> "cpu-limited"
  | Wire_limited -> "wire-limited"
  | Balanced -> "balanced"

type usage = { u_class : string; u_mean : float; u_peak : float }

type step = {
  s_part : int;
  s_drive : int;
  s_start : float;
  s_finish : float;
  s_seconds : (string * float) list;
}

type critical_path = {
  cp_steps : step list;
  cp_seconds : (string * float) list;
  cp_pct : (string * float) list;
}

type phase = {
  p_name : string;
  p_elapsed : float;
  p_verdict : verdict;
  p_usage : usage list;
  p_path : critical_path option;
}

type report = { phases : phase list }

(* ------------------------------------------------------------------ *)
(* Resource classes                                                    *)

let classes = [ "tape"; "disk"; "cpu"; "wire" ]
let path_classes = classes @ [ "backoff" ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

module Resource_id = Repro_sim.Resource_id

(* Resource keys as the scheduler and the engine name them, decoded
   through {!Resource_id.of_key} rather than ad-hoc prefix parsing. The
   [Key] fallbacks keep the historical classification of bare "tape" /
   "disk" / "cpu<n>" keys and of net keys without a part suffix. *)
let class_of_key k =
  match Resource_id.of_key k with
  | Resource_id.Tape _ -> Some "tape"
  | Resource_id.Disk _ -> Some "disk"
  | Resource_id.Cpu -> Some "cpu"
  | Resource_id.Net _ | Resource_id.Link _ -> Some "wire"
  | Resource_id.Drive _ | Resource_id.Tenant _ -> None
  | Resource_id.Key s ->
    if s = "tape" then Some "tape"
    else if s = "disk" then Some "disk"
    else if starts_with ~prefix:"cpu" s then Some "cpu"
    else if starts_with ~prefix:"net:" s then Some "wire"
    else None

(* ------------------------------------------------------------------ *)
(* Bottleneck attribution                                              *)

(* A class is the bottleneck when its mean busy fraction clears the
   attribution threshold and leads the runner-up by a clear margin;
   otherwise the phase is balanced. *)
let attribution_threshold = 0.80
let attribution_margin = 0.10

let verdict_of_class = function
  | "tape" -> Tape_limited
  | "disk" -> Disk_limited
  | "cpu" -> Cpu_limited
  | "wire" -> Wire_limited
  | _ -> Balanced

let classify usage =
  match List.sort (fun a b -> compare b.u_mean a.u_mean) usage with
  | [] -> Balanced
  | top :: rest ->
    let second = match rest with u :: _ -> u.u_mean | [] -> 0.0 in
    if
      top.u_mean >= attribution_threshold
      && top.u_mean -. second >= attribution_margin
    then verdict_of_class top.u_class
    else Balanced

(* Mean/peak busy fractions per class from the <prefix>.util.<key>
   series, found in the plane's series [names]. Within the tape class
   each key is one drive of the pool, so the class mean is the mean
   across drives (a half-idle pool reads 0.5); the other classes are
   single shared resources per key, so the class takes the busiest
   key. *)
let usage_of obs ~names ~prefix =
  let p = prefix ^ ".util." in
  let keyed =
    List.filter_map
      (fun name ->
        if starts_with ~prefix:p name then
          let key = String.sub name (String.length p) (String.length name - String.length p) in
          match class_of_key key with
          | Some cls -> (
            match Obs.series obs name with
            | [] -> None
            | pts ->
              let n = Float.of_int (List.length pts) in
              let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 pts in
              let peak = List.fold_left (fun a (_, v) -> Float.max a v) 0.0 pts in
              Some (cls, (sum /. n, peak)))
          | None -> None
        else None)
      names
  in
  List.filter_map
    (fun cls ->
      match List.filter (fun (c, _) -> c = cls) keyed with
      | [] -> None
      | keys ->
        let means = List.map (fun (_, (m, _)) -> m) keys in
        let mean =
          match cls with
          | "tape" ->
            List.fold_left ( +. ) 0.0 means /. Float.of_int (List.length means)
          | _ -> List.fold_left Float.max 0.0 means
        in
        let peak = List.fold_left (fun a (_, (_, p)) -> Float.max a p) 0.0 keys in
        Some { u_class = cls; u_mean = mean; u_peak = peak })
    classes

(* ------------------------------------------------------------------ *)
(* Critical path                                                       *)

type part_rec = {
  pr_part : int;
  pr_drive : int;
  pr_start : float;
  pr_finish : float;
  mutable pr_demands : (string * float) list; (* class -> seconds *)
  mutable pr_backoff : float;
}

let eps = 1e-6

let attr_int attrs k =
  match List.assoc_opt k attrs with Some (Obs.Int i) -> Some i | _ -> None

let attr_float attrs k =
  match List.assoc_opt k attrs with
  | Some (Obs.Float f) -> Some f
  | Some (Obs.Int i) -> Some (Float.of_int i)
  | _ -> None

let sum_by_class kvs =
  List.map
    (fun cls ->
      ( cls,
        List.fold_left
          (fun acc (k, v) -> if k = cls then acc +. v else acc)
          0.0 kvs ))
    path_classes

(* The per-part resource seconds come from the demand vector the part's
   span closed with. A remote part carries both the wire elapsed
   (net:host#k) and the link busy (link:host) for the same transfer;
   the elapsed is the gating interval, so when both appear the link
   seconds are dropped rather than double counted. *)
let seconds_of_demands demands =
  let is_net k =
    match Resource_id.of_key k with
    | Resource_id.Net _ -> true
    | Resource_id.Key s -> starts_with ~prefix:"net:" s
    | _ -> false
  in
  let has_net = List.exists (fun (k, _) -> is_net k) demands in
  let classed =
    List.filter_map
      (fun (k, v) ->
        match Resource_id.of_key k with
        | Resource_id.Link _ when has_net -> None
        | _ -> (
          match class_of_key k with
          | Some cls -> Some (cls, v)
          | None -> None))
      demands
  in
  sum_by_class classed

let critical_path_of evs =
  (* Span tree: parents from B events, part spans by name. *)
  let parent = Hashtbl.create 64 in
  let part_spans = Hashtbl.create 16 in
  List.iter
    (fun (e : Obs.event) ->
      match e.Obs.ph with
      | Obs.B ->
        Hashtbl.replace parent e.Obs.span e.Obs.parent;
        if e.Obs.ev_name = "part" then (
          match attr_int e.Obs.attrs "part" with
          | Some p -> Hashtbl.replace part_spans e.Obs.span p
          | None -> ())
      | _ -> ())
    evs;
  (* Completed parts from the scheduler's part_done instants. *)
  let parts = Hashtbl.create 16 in
  List.iter
    (fun (e : Obs.event) ->
      if e.Obs.ph = Obs.I && e.Obs.ev_name = "scheduler.part_done" then
        match (attr_int e.Obs.attrs "part", attr_float e.Obs.attrs "sim_finish_s") with
        | Some p, Some finish ->
          Hashtbl.replace parts p
            {
              pr_part = p;
              pr_drive = Option.value ~default:0 (attr_int e.Obs.attrs "drive");
              pr_start =
                Option.value ~default:0.0 (attr_float e.Obs.attrs "sim_start_s");
              pr_finish = finish;
              pr_demands = [];
              pr_backoff = 0.0;
            }
        | _ -> ())
    evs;
  (* Demand vectors from the closing attrs of each part's span; retry
     backoff from X events nested (at any depth) inside it. Abandoned or
     error spans may close without demands — their record just keeps an
     empty vector. *)
  let part_of_span span =
    let rec up s =
      if s = 0 then None
      else
        match Hashtbl.find_opt part_spans s with
        | Some p -> Some p
        | None -> up (Option.value ~default:0 (Hashtbl.find_opt parent s))
    in
    up span
  in
  List.iter
    (fun (e : Obs.event) ->
      match e.Obs.ph with
      | Obs.E -> (
        match Hashtbl.find_opt part_spans e.Obs.span with
        | Some p -> (
          match Hashtbl.find_opt parts p with
          | Some r ->
            let demands =
              List.filter_map
                (fun (k, v) ->
                  if starts_with ~prefix:"demand:" k then
                    match v with
                    | Obs.Float f ->
                      Some (String.sub k 7 (String.length k - 7), f)
                    | _ -> None
                  else None)
                e.Obs.attrs
            in
            if demands <> [] then r.pr_demands <- seconds_of_demands demands
          | None -> ())
        | None -> ())
      | Obs.X when e.Obs.ev_name = "retry.backoff" -> (
        match part_of_span e.Obs.span with
        | Some p -> (
          match Hashtbl.find_opt parts p with
          | Some r ->
            r.pr_backoff <- r.pr_backoff +. (Float.of_int e.Obs.dur /. 1e6)
          | None -> ())
        | None -> ())
      | _ -> ())
    evs;
  let all = Hashtbl.fold (fun _ r acc -> r :: acc) parts [] in
  match all with
  | [] -> None
  | _ ->
    (* Walk back from the last-finishing part. Each admission was gated
       by the completion that freed its slot: prefer the part that
       released this part's own drive, fall back to any completion at
       the admission instant (max_active gating). *)
    let last =
      List.fold_left
        (fun best r ->
          if
            r.pr_finish > best.pr_finish +. eps
            || (Float.abs (r.pr_finish -. best.pr_finish) <= eps
               && r.pr_part < best.pr_part)
          then r
          else best)
        (List.hd all) all
    in
    let visited = Hashtbl.create 16 in
    let rec walk r acc =
      Hashtbl.replace visited r.pr_part ();
      let acc = r :: acc in
      if r.pr_start <= eps then acc
      else
        let gating =
          List.filter
            (fun c ->
              (not (Hashtbl.mem visited c.pr_part))
              && Float.abs (c.pr_finish -. r.pr_start) <= eps)
            all
        in
        let pick =
          match List.filter (fun c -> c.pr_drive = r.pr_drive) gating with
          | c :: rest ->
            Some (List.fold_left (fun b x -> if x.pr_part < b.pr_part then x else b) c rest)
          | [] -> (
            match gating with
            | c :: rest ->
              Some
                (List.fold_left (fun b x -> if x.pr_part < b.pr_part then x else b) c rest)
            | [] -> None)
        in
        match pick with None -> acc | Some p -> walk p acc
    in
    let steps_r = walk last [] in
    let steps =
      List.map
        (fun r ->
          {
            s_part = r.pr_part;
            s_drive = r.pr_drive;
            s_start = r.pr_start;
            s_finish = r.pr_finish;
            s_seconds =
              List.map
                (fun (cls, v) ->
                  (cls, if cls = "backoff" then v +. r.pr_backoff else v))
                (match r.pr_demands with
                | [] -> sum_by_class []
                | d -> d);
          })
        steps_r
    in
    let cp_seconds =
      List.map
        (fun cls ->
          ( cls,
            List.fold_left
              (fun acc s ->
                acc +. Option.value ~default:0.0 (List.assoc_opt cls s.s_seconds))
              0.0 steps ))
        path_classes
    in
    let elapsed = last.pr_finish in
    let cp_pct =
      List.map
        (fun (cls, v) ->
          (cls, if elapsed > 0.0 then 100.0 *. v /. elapsed else 0.0))
        cp_seconds
    in
    Some { cp_steps = steps; cp_seconds; cp_pct }

(* ------------------------------------------------------------------ *)
(* The report                                                          *)

let critical_path obs = critical_path_of (Obs.events obs)

(* Phase elapsed: the engine span's closing sim_elapsed_s annotation,
   falling back to the critical path's last finish, then to the last
   sample time of the phase's series. *)
let elapsed_of obs ~evs ~names ~prefix ~path =
  let from_span =
    List.fold_left
      (fun acc (e : Obs.event) ->
        if e.Obs.ph = Obs.E && e.Obs.ev_name = "engine." ^ prefix then
          match attr_float e.Obs.attrs "sim_elapsed_s" with
          | Some s -> Some s
          | None -> acc
        else acc)
      None evs
  in
  match from_span with
  | Some s -> s
  | None -> (
    match path with
    | Some cp ->
      List.fold_left (fun acc s -> Float.max acc s.s_finish) 0.0 cp.cp_steps
    | None ->
      let p = prefix ^ ".util." in
      List.fold_left
        (fun acc name ->
          if starts_with ~prefix:p name then
            List.fold_left (fun a (ts, _) -> Float.max a ts) acc (Obs.series obs name)
          else acc)
        0.0 names)

(* One listing of the series and one copy of the events serve all three
   phases. *)
let analyze obs =
  let names = Obs.series_names obs and evs = Obs.events obs in
  let phases =
    List.filter_map
      (fun name ->
        match usage_of obs ~names ~prefix:name with
        | [] -> None
        | usage ->
          let path = if name = "backup" then critical_path_of evs else None in
          let elapsed = elapsed_of obs ~evs ~names ~prefix:name ~path in
          let path =
            (* Re-express the percentages against the phase elapsed. *)
            Option.map
              (fun cp ->
                {
                  cp with
                  cp_pct =
                    List.map
                      (fun (cls, v) ->
                        (cls, if elapsed > 0.0 then 100.0 *. v /. elapsed else 0.0))
                      cp.cp_seconds;
                })
              path
          in
          Some
            {
              p_name = name;
              p_elapsed = elapsed;
              p_verdict = classify usage;
              p_usage = usage;
              p_path = path;
            })
      [ "backup"; "restore"; "fleet" ]
  in
  { phases }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let fnum f =
  (* %.6g like the rest of the plane's exporters; stable bytes. *)
  Printf.sprintf "%.6g" f

let class_obj kvs =
  "{"
  ^ String.concat ","
      (List.map (fun (cls, v) -> Printf.sprintf "%S:%s" cls (fnum v)) kvs)
  ^ "}"

let to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"analysis\":\"v1\",\"phases\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf "{\"phase\":%S,\"verdict\":%S,\"elapsed_s\":%s,\"resources\":["
           p.p_name
           (verdict_to_string p.p_verdict)
           (fnum p.p_elapsed));
      List.iteri
        (fun j u ->
          if j > 0 then Buffer.add_string b ",";
          Buffer.add_string b
            (Printf.sprintf "{\"class\":%S,\"mean_util\":%s,\"peak_util\":%s}"
               u.u_class (fnum u.u_mean) (fnum u.u_peak)))
        p.p_usage;
      Buffer.add_string b "]";
      (match p.p_path with
      | None -> ()
      | Some cp ->
        Buffer.add_string b ",\"critical_path\":{\"steps\":[";
        List.iteri
          (fun j s ->
            if j > 0 then Buffer.add_string b ",";
            Buffer.add_string b
              (Printf.sprintf
                 "{\"part\":%d,\"drive\":%d,\"start_s\":%s,\"finish_s\":%s,\"seconds\":%s}"
                 s.s_part s.s_drive (fnum s.s_start) (fnum s.s_finish)
                 (class_obj s.s_seconds)))
          cp.cp_steps;
        Buffer.add_string b
          (Printf.sprintf "],\"resource_s\":%s,\"resource_pct\":%s}"
             (class_obj cp.cp_seconds) (class_obj cp.cp_pct)));
      Buffer.add_string b "}")
    r.phases;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Disaster-recovery drills                                            *)

type dr = {
  dr_rpo_s : float;
  dr_rto_s : float;
  dr_lag : (string * (float * float) list) list;
}

let lag_prefix = "repl.lag_s."

let dr obs =
  match
    (Obs.gauge_value obs "repl.rpo_s", Obs.gauge_value obs "repl.rto_s")
  with
  | Some rpo, Some rto ->
    let plen = String.length lag_prefix in
    let lag =
      Obs.series_names obs
      |> List.filter (fun n ->
             String.length n > plen && String.sub n 0 plen = lag_prefix)
      |> List.map (fun n ->
             (String.sub n plen (String.length n - plen), Obs.series obs n))
    in
    Some { dr_rpo_s = rpo; dr_rto_s = rto; dr_lag = lag }
  | _ -> None

let dr_to_json d =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"rpo_s\":%s,\"rto_s\":%s,\"lag\":{" (fnum d.dr_rpo_s)
       (fnum d.dr_rto_s));
  List.iteri
    (fun i (node, points) ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b (Printf.sprintf "%S:[" node);
      List.iteri
        (fun j (t, v) ->
          if j > 0 then Buffer.add_string b ",";
          Buffer.add_string b (Printf.sprintf "[%s,%s]" (fnum t) (fnum v)))
        points;
      Buffer.add_string b "]")
    d.dr_lag;
  Buffer.add_string b "}}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Series CSV export                                                   *)

(* Long format so a plotting tool can facet on the series column; one
   header, then one row per point, series in nat order, points in
   recording order. Deterministic bytes for identical planes. *)
let series_csv obs =
  let b = Buffer.create 1024 in
  Buffer.add_string b "series,t_s,value\n";
  List.iter
    (fun name ->
      List.iter
        (fun (t, v) ->
          Buffer.add_string b name;
          Buffer.add_char b ',';
          Buffer.add_string b (fnum t);
          Buffer.add_char b ',';
          Buffer.add_string b (fnum v);
          Buffer.add_char b '\n')
        (Obs.series obs name))
    (Obs.series_names obs);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Utilization sampling                                                *)

type sampler = {
  sm_prefix : string;
  sm_bins : int;
  sm_t0 : float;
  mutable sm_segments : (float * float * (string * float) list) list;
      (* newest first *)
  mutable sm_end : float;
}

let sampler ?(bins = 64) ?(t0 = 0.0) ~prefix () =
  { sm_prefix = prefix; sm_bins = bins; sm_t0 = t0; sm_segments = []; sm_end = 0.0 }

let strip_part_suffix key =
  match String.index_opt key '#' with
  | Some i -> String.sub key 0 i
  | None -> key

let sampler_segment s ~t0 ~t1 utils =
  if t1 > t0 then begin
    s.sm_segments <- (t0, t1, utils) :: s.sm_segments;
    if t1 > s.sm_end then s.sm_end <- t1
  end

let sampler_flush s =
  if s.sm_end > 0.0 && s.sm_segments <> [] then begin
    let w = s.sm_end /. Float.of_int s.sm_bins in
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (t0, t1, utils) ->
        List.iter
          (fun (key, u) ->
            let key = strip_part_suffix key in
            let arr =
              match Hashtbl.find_opt tbl key with
              | Some a -> a
              | None ->
                let a = Array.make s.sm_bins 0.0 in
                Hashtbl.add tbl key a;
                a
            in
            let b0 = Stdlib.max 0 (Float.to_int (t0 /. w))
            and b1 =
              Stdlib.min (s.sm_bins - 1) (Float.to_int ((t1 -. 1e-12) /. w))
            in
            for bin = b0 to b1 do
              let lo = w *. Float.of_int bin and hi = w *. Float.of_int (bin + 1) in
              let ov = Float.min hi t1 -. Float.max lo t0 in
              if ov > 0.0 then arr.(bin) <- arr.(bin) +. (u *. ov)
            done)
          utils)
      s.sm_segments;
    let keys =
      List.sort Obs.nat_compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
    in
    List.iter
      (fun key ->
        let arr = Hashtbl.find tbl key in
        let name = s.sm_prefix ^ ".util." ^ key in
        Array.iteri
          (fun bin busy ->
            Obs.sample
              ~at:(s.sm_t0 +. (w *. Float.of_int bin))
              name
              (Float.min 1.0 (busy /. w)))
          arr)
      keys;
    s.sm_segments <- [];
    s.sm_end <- 0.0
  end
