"""Hooks the benchmark attaches to ``dmst`` from outside.

``StepClock`` runs in every run. It timestamps the three calls ``train.py``
makes through its module globals (``model_loss`` starts a step,
``adamw_step`` ends it, ``evaluate`` is timed with its accuracy), one clock
read per call.

``LayerProbes`` runs only in the traced run. It wraps the calls into each
module with spans, counts autograd nodes, and tracks which model layer
(embed, norm, attn, mlp, head) and block is running, so that the backward
closure of every node is timed and charged to the op kind and the layer
that created it.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

from tracer import Attachments, Tracer

OP_KINDS = (
    "matmul", "gelu", "mul", "add", "mean", "pow_scalar",
    "reshape", "transpose", "soft_threshold_rows", "rope_rotate",
)
AUTODIFF_OPS = OP_KINDS + (
    "sub", "div", "neg", "broadcast_to", "concat", "getitem", "sum_",
    "sigmoid", "relu", "exp", "log", "softmax", "cross_entropy_mean",
)
MODEL_LAYERS = ("embed", "norm", "attn", "mlp", "head")
VERIFY_SUITES = ("rates", "sparsify", "gradients", "equivalence")
PROFILE_OPS = ("dmsa", "tssa", "mhsa")


class StepClock:
    """Training step boundaries and evaluate results, from train.py's globals."""

    def __init__(self):
        self.steps: list[tuple[float, float]] = []
        self.evals: list[tuple[float, float, float]] = []  # start, end, accuracy
        self._start: float | None = None

    def attach(self, att: Attachments) -> None:
        att.function("dmst.train.model_loss", self._wrap_start, everywhere=False)
        att.function("dmst.train.adamw_step", self._wrap_end, everywhere=False)
        att.function("dmst.train.evaluate", self._wrap_eval, everywhere=False)

    def _wrap_start(self, original):
        def model_loss(*args, **kwargs):
            self._start = time.perf_counter()
            return original(*args, **kwargs)
        return model_loss

    def _wrap_end(self, original):
        def adamw_step(*args, **kwargs):
            out = original(*args, **kwargs)
            if self._start is not None:
                self.steps.append((self._start, time.perf_counter()))
                self._start = None
            return out
        return adamw_step

    def _wrap_eval(self, original):
        def evaluate(*args, **kwargs):
            start = time.perf_counter()
            out = original(*args, **kwargs)
            self.evals.append((start, time.perf_counter(), float(out[1])))
            return out
        return evaluate


class LayerProbes:
    """Spans around the calls into every measured module of ``dmst``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.nodes = 0
        self.layer: str | None = None
        self.block: int | None = None
        self._root: int | None = None
        self._segment: int | None = None
        self._depth = 0
        self._norms = 0

    def attach(self, att: Attachments) -> None:
        span = self._span_wrapper
        for name in AUTODIFF_OPS:
            kind = name if name in OP_KINDS else "other"
            att.function(f"dmst.autodiff.{name}", self._op_wrapper(kind), everywhere=False)
        att.function("dmst.autodiff._node", self._wrap_node, everywhere=False)
        att.method("dmst.autodiff.Tensor.backward", span("autodiff.backward"))
        att.function("dmst.model.model_loss", self._wrap_root)
        att.function("dmst.model.model_forward", self._wrap_root)
        att.function("dmst.model._layer_norm", self._wrap_norm, everywhere=False)
        for name in ("_dmsa_attention", "_tssa_attention"):
            att.function(f"dmst.model.{name}", span("model.attn_operator"), everywhere=False)
        att.function("dmst.optim.adamw_step", span("optim.adamw"))
        att.function("dmst.train.evaluate", span("train.evaluate"))
        att.function("dmst.data.generate_synthetic", span("data.generate"))
        att.function("dmst.checkpoint.save_checkpoint", span("checkpoint.save"))
        att.function("dmst.checkpoint.load_checkpoint", span("checkpoint.load"))
        att.function("dmst.analysis.layer_rate_curve", span("analysis.layer_rate_curve"))
        att.function("dmst.analysis.membership_map", span("analysis.membership_map"))
        att.function(
            "dmst.coding_rate.rate_variational_decoupled",
            span("coding_rate.rate_variational_decoupled"),
        )
        for op in PROFILE_OPS:
            att.function(f"dmst.attention.{op}_layer_forward", span(f"attention.{op}", tokens=True))
        for suite in VERIFY_SUITES:
            att.function(f"dmst.verify.suite_{suite}", span(f"verify.{suite}"))
        att.function("dmst.verify.simplex_project_bisection", span("verify.bisection"))
        att.function("dmst.sparsify.soft_threshold", span("sparsify.soft_threshold"))

    # -- generic spans -----------------------------------------------------

    def _span_wrapper(self, name: str, tokens: bool = False):
        tracer = self.tracer

        def make(original):
            def wrapper(*args, **kwargs):
                attrs = {"n": int(args[0].shape[0])} if tokens and args else None
                return tracer.call(name, original, args, kwargs, attrs)
            return wrapper
        return make

    # -- autodiff ----------------------------------------------------------

    def _op_wrapper(self, kind: str):
        tracer, clock, name = self.tracer, self.tracer.clock, "autodiff.op." + kind

        def make(original):
            def op(*args, **kwargs):
                start = clock()
                out = original(*args, **kwargs)
                tracer.record(name, start, clock())
                return out
            return op
        return make

    def _wrap_node(self, original):
        tracer, clock = self.tracer, self.tracer.clock

        def node(data, parents, backward):
            # The caller is the op that builds the node, e.g. ``matmul``.
            kind = sys._getframe(1).f_code.co_name
            name = "autodiff.bwd." + (kind if kind in OP_KINDS else "other")
            attrs = {"layer": self.layer, "block": self.block}
            self.nodes += 1

            def timed(g):
                start = clock()
                backward(g)
                tracer.record(name, start, clock(), attrs)
            return original(data, parents, timed)
        return node

    # -- model layers --------------------------------------------------------

    def _begin(self, layer: str, block: int | None) -> None:
        self.layer, self.block = layer, block
        self._segment = self.tracer.open("model." + layer, {"block": block})

    def _end(self) -> None:
        self.tracer.close(self._segment)
        self.layer = self.block = self._segment = None

    def _wrap_root(self, original):
        """The outermost of ``model_loss``/``model_forward`` is one forward."""
        def root(*args, **kwargs):
            if self._root is not None:
                return original(*args, **kwargs)
            config = args[0] if args else kwargs["config"]
            self._depth, self._norms = config.depth, 0
            nodes_before = self.nodes
            self._root = self.tracer.open("model.forward")
            self._begin("embed", None)
            try:
                return original(*args, **kwargs)
            finally:
                self._end()
                self.tracer.spans[self._root].attrs = {"nodes": self.nodes - nodes_before}
                self.tracer.close(self._root)
                self._root = None
        return root

    def _wrap_norm(self, original):
        """Norm ``k`` of a forward is norm1 (even k), norm2 (odd k) or the final one."""
        def layer_norm(*args, **kwargs):
            if self._root is None:
                return original(*args, **kwargs)
            k = self._norms
            self._norms += 1
            final = k >= 2 * self._depth
            block = None if final else k // 2
            self._end()
            self._begin("norm", block)
            try:
                return original(*args, **kwargs)
            finally:
                self._end()
                self._begin("head" if final else ("attn" if k % 2 == 0 else "mlp"), block)
        return layer_norm


def attention_peaks(run) -> dict[tuple[str, int], float]:
    """Tracemalloc peak (MiB) of each attention operator call made by ``run()``.

    An untimed pass: the peak is reset before each call and read after it,
    so it counts what the operator allocates beyond what was live already.
    """
    peaks: dict[tuple[str, int], float] = {}
    att = Attachments()

    def measured(op: str):
        def make(original):
            def wrapper(tokens, *args, **kwargs):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = original(tokens, *args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1] - before
                peaks[(op, int(tokens.shape[0]))] = peak / 2**20
                return out
            return wrapper
        return make

    for op in PROFILE_OPS:
        att.function(f"dmst.attention.{op}_layer_forward", measured(op))
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        att.restore()
    return peaks
