(** Deterministic tracing and metrics.

    The observability {e plane} is the measurement twin of the fault
    plane ({!Repro_fault.Fault}): one plane at a time is globally armed,
    instrumentation points all over the stack consult it, and when no
    plane is armed (or the armed plane was created with [~enabled:false])
    every hook is a single load-and-branch — the [bench obs] target
    holds that cost under 1% on the Table 2 dump pass.

    Everything recorded is a pure function of the workload: timestamps
    come from a {e virtual clock} — the attached simulated clock
    ({!Repro_sim.Clock}), if any, plus the accumulated simulated device
    time reported by the I/O layers — never from the host. Identical
    seeds therefore produce byte-identical traces and metrics snapshots
    (property-tested in [test/test_obs.ml]).

    Three kinds of data are collected:

    - {e spans}: hierarchical begin/end intervals ("engine.backup" →
      "part" → "dumping files" → per-record tape I/O) with parent/child
      ids and typed attributes;
    - {e metrics}: a registry of named counters, gauges, and log2-bucket
      histograms;
    - {e instants}: point events (fault injections, repairs, retries)
      tagged with the id of the span they occurred inside — the
      correlation between the fault journal and the trace.

    Exporters render a plane as a Chrome [trace_event] JSON file
    (loadable in Perfetto / [about:tracing]), a JSONL metrics dump, or a
    human summary table. See [docs/OBSERVABILITY.md]. *)

(** {1 Attributes} *)

type value = Int of int | Float of float | Str of string | Bool of bool
type attr = string * value

(** {1 The plane} *)

type t

val create : ?clock:Repro_sim.Clock.t -> ?enabled:bool -> unit -> t
(** A fresh plane. [clock] (default none) anchors virtual timestamps to
    a simulated clock; device time accumulated via {!io} is added on
    top. [enabled] (default [true]) — an armed-but-disabled plane
    exercises the hook branches without recording anything, which is
    what [bench obs] measures. *)

val enable : t -> bool -> unit

(** {1 Arming}

    One plane is globally armed at a time; hooks consult it. *)

val arm : t -> unit
val disarm : unit -> unit
val armed : unit -> t option

val with_armed : t -> (unit -> 'a) -> 'a
(** Run a thunk with the plane armed, restoring the previously armed
    plane afterwards (also on exception). *)

val enabled : unit -> bool
(** [true] iff a plane is armed and recording. *)

(** {1 Spans}

    All span operations are ambient: they act on the armed plane and
    are no-ops (returning span id 0) when none is recording. *)

val span_begin : ?attrs:attr list -> string -> int
(** Open a span; returns its id (0 when disabled). The parent is the
    innermost open span. *)

val span_end : ?attrs:attr list -> int -> unit
(** Close span [id]. Closing out of order closes the intervening spans
    too (marked [abandoned]); closing an id that is not open is counted
    in {!unbalanced} and otherwise ignored; id 0 is a no-op. *)

val with_span : ?attrs:attr list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span. If [f] raises, the span
    is closed with an [error] attribute and the exception rethrown. *)

val observe : string -> (unit -> 'a) -> 'a
(** [with_span] under the [~observe] callback shape used by
    {!Repro_dump.Dump.run} and friends: stage label = span name. *)

val annotate : attr list -> unit
(** Attach attributes to the innermost open span (emitted on its end
    event). *)

val current_span : unit -> int
(** Id of the innermost open span; 0 at the root or when disabled. *)

val instant : ?attrs:attr list -> string -> unit
(** A point event inside the current span. *)

val io : op:string -> device:string -> ?addr:int -> bytes:int -> float -> unit
(** [io ~op ~device ~bytes dur_s] records one device operation: a
    complete event of [dur_s] simulated seconds at the virtual now
    (advancing it), plus [op].ops / [op].bytes counters and an
    [op].latency_us histogram observation. *)

val advance : float -> unit
(** Advance the virtual clock by simulated seconds without recording an
    event (e.g. retry backoff charged to an engine clock the plane is
    not attached to). *)

val sample : ?at:float -> string -> float -> unit
(** [sample name v] appends one point to the named time series at the
    virtual now, or at [at] simulated seconds when given (e.g. points on
    a scheduler's own timeline). Series feed {!series_jsonl} and render
    as Perfetto counter tracks in {!chrome_trace}; the scheduler records
    per-resource utilization timelines through this hook
    ({!Analysis.sampler}). *)

(** {1 Metrics} (ambient, like spans) *)

val count : string -> int -> unit
(** Add to a counter, creating it at 0. *)

val set_gauge : string -> float -> unit
val hist : string -> int -> unit
(** Record a value into a log2-bucket histogram: bucket 0 holds values
    [<= 0]; bucket [k >= 1] holds [2{^k-1} <= v < 2{^k}] (so 1 → bucket
    1, [max_int] → bucket 62). *)

val bucket_of : int -> int
(** The bucket index {!hist} files a value under (exposed for tests). *)

val bucket_lo : int -> int
(** Smallest value of bucket [k] (0 for bucket 0). *)

(** {1 Inspection and export} *)

type phase = B | E | I | X

type event = {
  ph : phase;
  ev_name : string;
  span : int;  (** span id (B/E) or enclosing span id (I/X) *)
  parent : int;  (** parent span id (B events; 0 = root) *)
  ts : int;  (** virtual microseconds *)
  dur : int;  (** microseconds, X events only *)
  attrs : attr list;
}

val events : t -> event list
(** In emission order. *)

val open_spans : t -> int
(** Spans currently open (0 after balanced use). *)

val unbalanced : t -> int
(** [span_end] calls that named a span that was not open. *)

val counter_value : t -> string -> int
(** 0 when absent (or not a counter). *)

val gauge_value : t -> string -> float option

val hist_stats : t -> string -> (int * int * int) option
(** [(count, sum, max)] of a histogram. *)

val hist_buckets : t -> string -> (int * int) list
(** Nonzero [(bucket, count)] pairs, ascending. *)

val hist_percentile : t -> string -> float -> float option
(** [hist_percentile t name q] (with [q] in [[0, 1]]) estimates the
    [q]-quantile of a histogram by linear interpolation inside its log2
    bucket, clamped to the exact observed maximum — exact for constant
    distributions, within one bucket otherwise. [None] if the metric is
    absent, empty, or not a histogram. *)

val json_escape : string -> string
(** JSON string-body escaping as every exporter in the plane applies it
    (quotes, backslashes, control bytes); shared by {!Slo}'s journal and
    the fleet night report so all artifacts escape identically. *)

val nat_compare : string -> string -> int
(** Natural (numeric-aware) string order: digit runs compare as numbers,
    so ["drive2"] sorts before ["drive10"]. All listings of metric and
    series names use this order. *)

val series : t -> string -> (float * float) list
(** Points of a time series as [(simulated seconds, value)], in
    recording order. Besides series recorded via {!sample}, per-device
    busy-fraction timelines derived from the recorded device ops are
    available under [dev.<device>.busy]; a recorded series of the same
    name shadows the derived one. Empty if the name is unknown.

    Costs time in proportion to the points returned: a recorded name is
    one table lookup. The derived series are built from the events at
    most once per event count and kept in the plane, so a run of
    lookups between recordings derives them once; a miss on a name
    that is not of the [dev.<device>.busy] form never touches the
    events. *)

val series_names : t -> string list
(** All series (recorded and derived), in {!nat_compare} order; a
    recorded series that shadows a derived one is listed twice, the
    recorded one first. Builds no points: the cost is sorting the
    recorded names, plus deriving the device series if the events
    changed since they were last derived. *)

val series_last : t -> ?at:float -> string -> (float * float) option
(** The newest recorded point of a series, or the newest point at or
    before [at] simulated seconds when given. The cut rounds [at] to
    the nearest microsecond, so a point's own time as returned here
    (microseconds / 1e6) always finds that point. O(1) for the common
    monotone-append case ({!Slo} polls series this way on every
    scheduler interval); derived [dev.*] series are not consulted. *)

val series_since : t -> t0:float -> string -> (float * float) list
(** Recorded points with timestamp [>= t0] (rounded to the nearest
    microsecond, like [series_last]'s cut), oldest first — the sliding
    window a burn-rate rule evaluates over. Walks newest-first and stops
    at the first point before [t0], so the cost is proportional to the
    window, not the series. *)

val chrome_trace : t -> string
(** The plane as a Chrome [trace_event] JSON object
    ([{"traceEvents":[...]}]). Spans become B/E pairs, instants [i],
    device ops [X]; every event's [args] carry its span id. Spans with a
    [drive] (or nonempty [host]) attribute land on their own thread
    track — named via [thread_name] metadata — so multi-drive runs
    render as parallel lanes; time series render as [C] counter
    tracks. *)

val metrics_jsonl : t -> string
(** One JSON object per line, one line per metric, in {!nat_compare}
    order. Histogram lines carry estimated [p50]/[p95]/[p99]. *)

val series_jsonl : t -> string
(** One JSON object per line, one line per series (recorded and
    derived), in {!nat_compare} order:
    [{"name":...,"type":"series","points":[[t_s,v],...]}]. *)

val pp_summary : Format.formatter -> t -> unit
(** Human table: span and event totals, counters, gauges, histograms
    (with estimated percentiles). *)
