(** Execute a skeleton pipeline on the host SCL skeletons — the third
    semantics next to {!Ast.eval} (reference) and {!Sim_exec} (simulated
    machine). Pass [?exec] to choose the {!Scl.Exec} backend: sequential
    (default) or a multicore pool.

    Execution is fusion-aware: the pipeline is walked in application order
    and maximal runs of [Map] stages run as a single pass — a run ending in
    [Fold] dispatches to the fused [map_fold] primitive, one ending in
    [Scan] to [map_scan], and a bare multi-map run to [map_compose]. No
    intermediate array is materialised between fused stages. Fusion
    preserves meaning exactly: the same functions are applied to the same
    elements in the same order, so results (and raised errors) match the
    node-by-node evaluation — this is locked against {!Ast.eval} by the
    differential oracle in [tools/diffcheck].

    Supports the whole AST including nested parallelism ([Split] /
    [Combine] / [Map_nested] run through {!Scl.Partition}).
    [Foldr_compose] is inherently sequential and is computed directly, as
    on the simulator.

    Error taxonomy: host skeletons signal bad movements with
    [Invalid_argument]; this wrapper translates those into
    {!Value.Type_error} so all backends raise the same exception class on
    the same inputs (empty fold, out-of-range fetch/send, non-permutation
    send). *)

val eval :
  ?exec:Scl.Exec.t -> ?fx:Scl.Flat_exec.t -> ?optimize:bool -> Ast.expr -> Value.t -> Value.t
(** [eval ?exec ?fx ?optimize e v] equals [Ast.eval e v] on every input
    where the latter is defined. @raise Value.Type_error as {!Ast.eval}
    does.

    Map runs (and their fold/scan consumers) made entirely of
    {!Flat_fns}-recognised float primitives over all-float arrays dispatch
    to the unboxed {!Scl.Flat_exec} kernels on the [?fx] backend (default
    sequential; pass [Scl.Flat_exec.on_pool] to run flat legs on the
    pool). A multi-map run becomes one {!Scl.Flat_exec.Chain} of its
    stages, so the fused kernel allocates nothing per element. The value
    is converted to a [float array] in one pass that gives up at the first
    non-[Float] element (the run then takes the boxed path), and back in
    one sequential pass: boxing on the pool measured about 3x slower,
    since minor collections stop every domain. The flat path is
    bitwise-identical to the boxed path: the same float operations are
    applied in the same order.

    With [~optimize:true] (default [false]) the pipeline is first rewritten
    by {!Optimizer.optimize} (cost-gated, with [~n] taken from the actual
    input length when [v] is an array) and the optimised form is executed.
    This is meaning-preserving whenever the rule set is — which holds for
    the default rules on well-typed inputs, but note that rewrites can
    change *where* a partial pipeline fails (e.g. fusing a map into a fold
    changes which stage first observes an ill-typed element), never whether
    a fully defined pipeline's value changes. The differential oracle runs
    the optimised and unoptimised paths side by side. *)
