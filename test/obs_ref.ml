(* Reference series read path: the build-everything [series] and
   [series_names] that Repro_obs.Obs replaced with one table lookup per
   name and a per-event-count memo of the derived device series. Every
   read here rebuilds and nat-sorts every series, recorded and derived,
   from scratch, exactly as the plane once did.

   The model records what a plane records for series: the samples, and
   the device ops with their virtual timestamps (it keeps the virtual
   clock the way a plane without a simulated clock does). test_obs feeds
   it and an armed plane the same recordings and requires the same
   answers and the same series JSONL bytes. Linked into every test
   executable, like differential.ml; it is not itself a test. *)

type op = { op : string; device : string; ts : int; dur : int }

type t = {
  mutable io_us : float;
  mutable ops : op list; (* newest first *)
  ser_tbl : (string, (int * float) list ref) Hashtbl.t; (* newest first *)
}

let create () = { io_us = 0.0; ops = []; ser_tbl = Hashtbl.create 16 }
let now_us t = Float.to_int (0.0 +. t.io_us)

let io t ~op ~device dur_s =
  t.ops <- { op; device; ts = now_us t; dur = Float.to_int (dur_s *. 1e6) } :: t.ops;
  t.io_us <- t.io_us +. (dur_s *. 1e6)

let advance t secs = t.io_us <- t.io_us +. (secs *. 1e6)

let sample t ?at name v =
  let ts = match at with Some s -> Float.to_int (s *. 1e6) | None -> now_us t in
  match Hashtbl.find_opt t.ser_tbl name with
  | Some pts -> pts := (ts, v) :: !pts
  | None -> Hashtbl.add t.ser_tbl name (ref [ (ts, v) ])

let series_bins = 64
let by_name (a, _) (b, _) = Repro_obs.Obs.nat_compare a b

let device_series t =
  let xs =
    List.filter
      (fun e ->
        e.dur > 0
        && not (String.length e.op >= 6 && String.sub e.op 0 6 = "retry."))
      (List.rev t.ops)
  in
  if xs = [] then []
  else begin
    let tend = List.fold_left (fun acc e -> Stdlib.max acc (e.ts + e.dur)) 0 xs in
    if tend <= 0 then []
    else begin
      let w = Float.of_int tend /. Float.of_int series_bins in
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let arr =
            match Hashtbl.find_opt tbl e.device with
            | Some a -> a
            | None ->
              let a = Array.make series_bins 0.0 in
              Hashtbl.add tbl e.device a;
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
      Hashtbl.fold
        (fun device arr acc ->
          let pts =
            Array.to_list
              (Array.mapi
                 (fun bin busy ->
                   (w *. Float.of_int bin /. 1e6, Float.min 1.0 (busy /. w)))
                 arr)
          in
          (Printf.sprintf "dev.%s.busy" device, pts) :: acc)
        tbl []
      |> List.sort by_name
    end
  end

let recorded_series t =
  Hashtbl.fold
    (fun name pts acc ->
      (name, List.rev_map (fun (ts, v) -> (Float.of_int ts /. 1e6, v)) !pts) :: acc)
    t.ser_tbl []
  |> List.sort by_name

let all_series t = List.sort by_name (recorded_series t @ device_series t)

let series t name =
  match List.assoc_opt name (recorded_series t) with
  | Some pts -> pts
  | None -> (
    match List.assoc_opt name (device_series t) with Some pts -> pts | None -> [])

let series_names t = List.map fst (all_series t)

let value_json f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let series_jsonl t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, pts) ->
      Buffer.add_string b
        (Printf.sprintf "{\"name\":\"%s\",\"type\":\"series\",\"points\":["
           (Repro_obs.Obs.json_escape name));
      List.iteri
        (fun i (ts_s, v) ->
          if i > 0 then Buffer.add_string b ",";
          Buffer.add_string b (Printf.sprintf "[%s,%s]" (value_json ts_s) (value_json v)))
        pts;
      Buffer.add_string b "]}\n")
    (all_series t);
  Buffer.contents b
