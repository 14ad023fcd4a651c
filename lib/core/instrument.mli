(** Stage-level measurement and the stage-stream runner.

    The experiment harness runs each backup stream's real code serially
    while snapshotting resource counters (CPU, disk array, tape drive)
    around every stage the dump/restore implementations announce through
    their [observe] hooks. The resulting per-stage demand vectors are then
    overlapped on {!Scheduler.run_tasks} the way the pipelined filer would,
    yielding the elapsed-time and utilization numbers of Tables 2–5.

    Within a stage the real systems are pipelined (read-ahead keeps the
    disks busy while the CPU formats records and the tape streams), so a
    lone stage's elapsed time is the {e maximum} of its per-resource
    demands, and concurrent streams share resources by max-min fairness
    ({!Scheduler.fair_share}). This is exactly the structure the paper's
    analysis uses: "the tape device is the bottleneck", "the bottleneck in
    this case must be the disks". *)

type demand = { resource : Repro_sim.Resource.t; work : float; bytes : int }
(** [work] is seconds of service needed from [resource]; [bytes] is payload
    volume attributed to the resource for MB/s reporting. *)

val demand : ?bytes:int -> Repro_sim.Resource.t -> float -> demand
(** Raises [Invalid_argument] on negative [work]. *)

type stage = { label : string; demands : demand list }

val stage : string -> demand list -> stage

type stream = { stream_label : string; stages : stage list }
(** One tape drive's sequence of stages ("mapping", "dumping files", ...). *)

type stage_summary = {
  stage_label : string;
  start : float;
  finish : float;
  busy : (string * float) list;
      (** per-resource busy seconds of the stages with this label, summed
          over all streams, sorted by resource name *)
  stage_bytes : (string * int) list;
}

type report = { elapsed : float; stages : stage_summary list }

val run : stream list -> report
(** Simulate all streams to completion on {!Scheduler.run_tasks}: each
    stream holds one exclusive slot and each of its stages is a task
    claiming exactly that slot, so a stream's stages run in list order.
    Stage summaries are aggregated by label (parallel streams running
    "dumping files" on four tapes produce a single "dumping files" row, as
    in Tables 4 and 5) and listed in order of first start. A stage with no
    demand completes effectively instantly. Raises [Invalid_argument] on
    an empty stream list. *)

val stage_elapsed : stage_summary -> float

val stage_utilization : stage_summary -> string -> float
(** [stage_utilization s r] is busy seconds of resource [r] during [s]
    divided by the stage window. *)

(** {1 Measuring stages} *)

val collect :
  resources:Repro_sim.Resource.t list ->
  ((string -> (unit -> unit) -> unit) -> 'a) ->
  'a * stage list
(** [collect ~resources f] calls [f observe]; every [observe label work]
    executed inside becomes one {!stage} whose demands are the busy-time
    and byte deltas each resource accumulated during [work]. Stages with
    no measurable demand are kept (zero-cost stages complete instantly in
    {!run}). *)

val add_demand : stage list -> stage:string -> demand -> stage list
(** Append a synthetic demand (e.g. per-operation serialization latency) to
    the named stage. *)

val scale_stages : stage list -> float -> stage list
(** Multiply every demand (work and bytes) — used to split one measured
    physical stream into [n] symmetric parallel streams. *)

val retarget :
  stage list -> from_prefix:string -> to_resource:Repro_sim.Resource.t -> stage list
(** Re-point demands whose resource name starts with [from_prefix] (e.g.
    ["tape:"]) at a different resource — gives each synthetic parallel
    stream its own tape drive. *)
