(** Work-stealing domain pool: fork/join futures and parallel loops.

    The pool spawns one domain per worker. {!async} from inside a worker
    pushes onto that worker's own deque; from outside it goes to a shared
    injection queue. {!await} helps (runs other tasks) instead of blocking,
    so arbitrarily nested fork/join never deadlocks. *)

type t

type 'a promise

val create : ?num_domains:int -> unit -> t
(** [create ~num_domains ()] spawns [num_domains] worker domains (default:
    [Domain.recommended_domain_count () - 1], at least 1). [num_domains = 0]
    is allowed: all work then runs in the callers' {!await} loops. *)

val teardown : t -> unit
(** Stop and join all workers. Idempotent. Submissions after teardown raise
    [Invalid_argument]. *)

val num_workers : t -> int

(** {1 Scheduling statistics}

    Counted with plain per-worker fields (single-writer, always on, free);
    reads while the pool is busy may lag by a few events. *)

type worker_stats = {
  tasks : int;  (** = own_pops + steals + inject_pops *)
  own_pops : int;  (** tasks taken from the worker's own deque *)
  steals : int;  (** tasks stolen from a victim's deque *)
  inject_pops : int;  (** tasks taken from the shared injection queue *)
}

type stats = {
  per_worker : worker_stats array;
  external_steals : int;  (** tasks run by non-worker domains helping in await *)
  external_inject_pops : int;
  total_submitted : int;
  total_tasks : int;
  task_exceptions : int;
      (** bare (promise-less) tasks that raised: the pool swallows the
          exception to keep the worker domain alive, but counts it here and
          in the [pool.task_exceptions] obs counter *)
}

val stats : t -> stats

val publish_obs : t -> unit
(** Add this pool's totals to the global obs counters ([pool.tasks],
    [pool.steals], [pool.inject_pops], [pool.submitted]). Called
    automatically by {!teardown} when observability is enabled. *)

val async : t -> (unit -> 'a) -> 'a promise
(** Submit a task; exceptions are captured and re-raised at {!await}. *)

val await : t -> 'a promise -> 'a
(** Wait for a promise, executing other pool tasks meanwhile. *)

val run : t -> (unit -> 'a) -> 'a
(** [run t f] = [await t (async t f)]. *)

val spawn : t -> (unit -> unit) -> unit
(** Fire-and-forget: submit a bare task with no promise. An exception
    raised by the task cannot be re-raised anywhere, so the pool swallows
    it to keep the worker domain alive — but counts it in
    [stats.task_exceptions] and the [pool.task_exceptions] obs counter
    rather than losing it silently. *)

val grain_for : t -> int -> int
(** [grain_for t n] is the size-aware grain heuristic shared by the loop
    primitives and the {!Scl.Exec} backend chunking: aims at ~4 tasks per
    worker for stealing balance, but never chunks below a minimum
    sequential run (32 elements), so small arrays execute as one task
    instead of paying per-element scheduling overhead. This is the default
    when [?grain] is omitted below. *)

val grain_for_bytes : t -> elem_bytes:int -> int -> int
(** [grain_for_bytes t ~elem_bytes n] is {!grain_for} with a byte-budget
    floor instead of the boxed 32-element one: chunks never shrink below
    2048 bytes of payload ([2048 / elem_bytes] elements, so 256 for 8-byte
    floats), because an unboxed loop body is a handful of instructions and
    a 32-element task would be mostly scheduling overhead. The
    load-balance term is identical to {!grain_for}, so large arrays chunk
    the same on both heuristics. Used by the flat ([Scl.Flat_exec])
    kernels over unboxed [float array]s. *)

val parallel_for : ?grain:int -> t -> lo:int -> hi:int -> (int -> unit) -> unit
(** Evaluate [body i] for [lo <= i < hi] in parallel by recursive halving;
    chunks of at most [grain] run sequentially. *)

val parallel_for_reduce :
  ?grain:int ->
  t ->
  lo:int ->
  hi:int ->
  body:(int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  init:'a ->
  'a
(** Parallel map-reduce over an index range. [combine] must be associative
    with identity [init] for a deterministic result. *)

val map_array : ?grain:int -> t -> ('a -> 'b) -> 'a array -> 'b array
val mapi_array : ?grain:int -> t -> (int -> 'a -> 'b) -> 'a array -> 'b array
val init_array : ?grain:int -> t -> int -> (int -> 'a) -> 'a array
