module Resource = Repro_sim.Resource
module Obs = Repro_obs.Obs

type demand = { resource : Resource.t; work : float; bytes : int }

let demand ?(bytes = 0) resource work =
  if work < 0.0 then invalid_arg "Instrument.demand: negative work";
  { resource; work; bytes }

type stage = { label : string; demands : demand list }

let stage label demands = { label; demands }

type stream = { stream_label : string; stages : stage list }

type stage_summary = {
  stage_label : string;
  start : float;
  finish : float;
  busy : (string * float) list;
  stage_bytes : (string * int) list;
}

type report = { elapsed : float; stages : stage_summary list }

(* ------------------------------ runner ------------------------------- *)

(* Per-key totals, sorted by key. *)
let sum_by_key add pairs =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some x -> (k, add x v) :: List.remove_assoc k acc
      | None -> (k, v) :: acc)
    [] pairs
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Stream [i] holds slot [Drive i]; its stages are tasks claiming exactly
   that slot, listed in stage order, and the queue admits in list order —
   so each stream runs its stages in sequence while the streams overlap
   under max-min fair sharing of their demands. *)
let run streams =
  let slot i = Scheduler.Resource_id.Drive i in
  let tasks =
    List.concat
      (List.mapi
         (fun i (s : stream) ->
           List.map
             (fun st ->
               Scheduler.task ~label:st.label
                 ~claims:[ Scheduler.Exactly (slot i) ]
                 (fun ~now:_ ~granted:_ ->
                   ( st,
                     List.map
                       (fun d -> Scheduler.demand_of_resource d.resource d.work)
                       st.demands )))
             s.stages)
         streams)
  in
  let outcomes, stats =
    Scheduler.run_tasks ~slots:(List.mapi (fun i _ -> slot i) streams) tasks
  in
  let finished =
    Array.to_list outcomes
    |> List.map (function
         | Scheduler.Completed { g_value; g_started; g_finished; _ } ->
           (g_value, g_started, g_finished)
         | Scheduler.Errored _ | Scheduler.Unran ->
           (* a stage task never raises, and nothing is fatal *)
           assert false)
    |> List.stable_sort (fun (_, a, _) (_, b, _) -> Float.compare a b)
  in
  let labels =
    List.fold_left
      (fun acc (st, _, _) -> if List.mem st.label acc then acc else st.label :: acc)
      [] finished
  in
  (* One row per label: the window from its first start to its last
     finish, and the sum of its stages' demands. *)
  let summary label =
    let group = List.filter (fun (st, _, _) -> String.equal st.label label) finished in
    let per_resource f =
      List.concat_map
        (fun (st, _, _) ->
          List.filter_map
            (fun d -> Option.map (fun v -> (Resource.name d.resource, v)) (f d))
            st.demands)
        group
    in
    let _, start, _ = List.hd group in
    {
      stage_label = label;
      start;
      finish = List.fold_left (fun acc (_, _, f) -> Float.max acc f) start group;
      busy =
        sum_by_key ( +. )
          (per_resource (fun d -> if d.work > 0.0 then Some d.work else None));
      stage_bytes =
        sum_by_key ( + )
          (per_resource (fun d -> if d.bytes > 0 then Some d.bytes else None));
    }
  in
  { elapsed = stats.Scheduler.p_elapsed; stages = List.rev_map summary labels }

let stage_elapsed s = Float.max 0.0 (s.finish -. s.start)

let stage_utilization s resource =
  let elapsed = stage_elapsed s in
  if elapsed <= 0.0 then 0.0
  else
    match List.assoc_opt resource s.busy with
    | Some b -> b /. elapsed
    | None -> 0.0

(* ----------------------------- measuring ----------------------------- *)

(* Each observed region is one span on the armed obs plane AND one
   stage; the measured region is identical, so Tables 2-5 and a trace of
   the same run agree by construction. The per-resource demands are
   annotated onto the span as it closes. *)
let collect ~resources f =
  let stages = ref [] in
  let observe label work =
    Obs.with_span label (fun () ->
        let before =
          List.map (fun r -> (r, Resource.busy r, Resource.bytes r)) resources
        in
        work ();
        let demands =
          List.filter_map
            (fun (r, busy0, bytes0) ->
              let dbusy = Resource.busy r -. busy0 in
              let dbytes = Resource.bytes r - bytes0 in
              if dbusy > 0.0 || dbytes > 0 then Some (demand ~bytes:dbytes r dbusy)
              else None)
            before
        in
        Obs.annotate
          (List.map
             (fun d -> ("busy:" ^ Resource.name d.resource, Obs.Float d.work))
             demands);
        stages := stage label demands :: !stages)
  in
  let result = f observe in
  (result, List.rev !stages)

let add_demand stages ~stage:label d =
  List.map
    (fun s -> if String.equal s.label label then stage s.label (s.demands @ [ d ]) else s)
    stages

let scale_stages stages factor =
  List.map
    (fun s ->
      stage s.label
        (List.map
           (fun d ->
             demand
               ~bytes:(Float.to_int (Float.of_int d.bytes *. factor))
               d.resource (d.work *. factor))
           s.demands))
    stages

let retarget stages ~from_prefix ~to_resource =
  let retarget d =
    if String.starts_with ~prefix:from_prefix (Resource.name d.resource) then
      { d with resource = to_resource }
    else d
  in
  List.map (fun s -> stage s.label (List.map retarget s.demands)) stages
