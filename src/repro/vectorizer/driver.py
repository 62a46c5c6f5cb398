"""The offline auto-vectorizer driver.

Walks every loop nest of a function and applies, in order of preference:

1. inner-loop vectorization (the bread-and-butter path);
2. outer-loop vectorization for nests whose innermost loop resists
   (strided or recurrent inner bodies — alvinn, dct);
3. superword (SLP) re-rolling for unrolled straight-line bodies
   (mix_streams).

Produces a *new* function (the original scalar IR is untouched — the
harness needs both, they are the two bytecodes of Figure 1).  Every
decision is recorded in ``fn.annotations["vect_report"]`` so tests and the
experiment harness can assert which kernels vectorized and why others did
not (the paper's lu/ludcmp/seidel cases).
"""

from __future__ import annotations

from ..analysis.loopinfo import LoopInfo
from ..ir import (
    Block,
    ForLoop,
    Function,
    If,
    Module,
    Value,
    clone_block,
    clone_instr,
    walk,
)
from .config import VectorizerConfig
from .ifconv import can_if_convert, if_convert_block
from .legality import check_inner_loop
from .loop import build_vectorized_region
from .outer import try_outer_vectorize
from .slp import try_slp_vectorize
from .stmt import PlanError

__all__ = ["vectorize_function", "vectorize_module"]


def _clone_function(fn: Function, form: str) -> Function:
    out = Function(fn.name, fn.scalar_params, fn.array_params, fn.return_type)
    out.body = clone_block(fn.body, {})
    out.form = form
    out.annotations = dict(fn.annotations)
    return out


def _remap_after(block: Block, start: int, mapping: dict[Value, Value]) -> None:
    for instr in block.instrs[start:]:
        instr.replace_uses(mapping)
        if isinstance(instr, ForLoop):
            for inner in walk(instr.body):
                inner.replace_uses(mapping)
        elif isinstance(instr, If):
            for inner in walk(instr.then_block):
                inner.replace_uses(mapping)
            for inner in walk(instr.else_block):
                inner.replace_uses(mapping)


class _Driver:
    def __init__(self, fn: Function, config: VectorizerConfig) -> None:
        self.fn = fn
        self.config = config
        self.report: dict[str, str] = {}
        self._loop_keys: dict[int, str] = {}

    def run(self) -> Function:
        self._process_block(self.fn.body)
        self.fn.annotations["vect_report"] = self.report
        return self.fn

    def _process_block(self, block: Block) -> None:
        i = 0
        while i < len(block.instrs):
            instr = block.instrs[i]
            if isinstance(instr, ForLoop):
                # Never touch loops the vectorizer itself produced
                # (peel/vector/epilogue trios, versioned scalar clones).
                if instr.kind != "scalar" or "vect_group" in instr.annotations:
                    i += 1
                    continue
                if self._try_loop(block, i, instr):
                    # Skip everything just spliced in.
                    i += 1
                    continue
                self._process_block(instr.body)
            elif isinstance(instr, If):
                self._process_block(instr.then_block)
                self._process_block(instr.else_block)
            i += 1

    # -- one loop ------------------------------------------------------------

    def _try_loop(self, block: Block, index: int, loop: ForLoop) -> bool:
        has_nested = any(isinstance(x, ForLoop) for x in walk(loop.body))
        if has_nested:
            if not self.config.enable_outer:
                return False
            # Only try the outer loop when its immediate inner loops do not
            # vectorize on their own (the common profitable case for
            # alvinn/dct-style nests); the version guard still lets the JIT
            # fall back.
            if self._any_inner_vectorizable(loop):
                return False
            return self._apply(
                block, index, loop,
                lambda: try_outer_vectorize(loop, self.config),
                label="outer",
            )
        # Innermost loop: if-convert a clone if needed.
        work = loop
        if any(isinstance(x, If) for x in walk(loop.body)):
            if not can_if_convert(loop.body):
                self.report[self._key(loop)] = "rejected: control flow"
                return False
            vmap: dict[Value, Value] = {}
            work = clone_instr(loop, vmap)
            if_convert_block(work.body)
        info = LoopInfo(work, None, 0, children=[])
        legal = check_inner_loop(info, self.config)
        if not legal.ok:
            self.report[self._key(loop)] = "rejected: " + "; ".join(legal.reasons)
            if self.config.enable_slp:
                return self._apply(
                    block, index, loop,
                    lambda: try_slp_vectorize(loop, self.config),
                    label="slp",
                )
            return False
        estimate = self._estimate(info, legal)
        if estimate is not None and estimate.speedup < self.config.cost_threshold:
            self.report[self._key(loop)] = (
                f"rejected (cost model): est x{estimate.speedup:.2f} "
                f"on {estimate.profile}"
            )
            return False
        done = self._apply(
            block, index, loop,
            lambda: _region_or_none(info, legal, self.config),
            label="inner",
            replaced=work,
            original=loop,
        )
        if done and estimate is not None:
            self.report[self._key(loop)] += f" est x{estimate.speedup:.2f}"
        return done

    def _estimate(self, info: LoopInfo, legal):
        from .cost import estimate_loop_cost
        from .stmt import plan_streams

        try:
            lc = None
            from ..ir import Const

            if isinstance(info.loop.lower, Const):
                lc = int(info.loop.lower.value)
            plan = plan_streams(
                legal, info.iv, legal.min_elem, self.config, lc
            )
        except PlanError:
            return None
        return estimate_loop_cost(info, legal, plan, self.config)

    def _any_inner_vectorizable(self, loop: ForLoop) -> bool:
        for instr in loop.body.instrs:
            if isinstance(instr, ForLoop):
                nested = any(isinstance(x, ForLoop) for x in walk(instr.body))
                if nested:
                    if self._any_inner_vectorizable(instr):
                        return True
                    continue
                work = instr
                if any(isinstance(x, If) for x in walk(instr.body)):
                    if not can_if_convert(instr.body):
                        continue
                    work = clone_instr(instr, {})
                    if_convert_block(work.body)
                info = LoopInfo(work, None, 0, children=[])
                legal = check_inner_loop(info, self.config)
                if legal.ok:
                    try:
                        plan_probe = build_vectorized_region(
                            info, legal, _probe_config(self.config)
                        )
                        del plan_probe
                        return True
                    except PlanError:
                        continue
            elif isinstance(instr, If):
                for arm in (instr.then_block, instr.else_block):
                    for inner in arm.instrs:
                        if isinstance(inner, ForLoop):
                            return True  # be conservative: let inner pass run
        return False

    def _apply(self, block, index, loop, builder, label, replaced=None,
               original=None) -> bool:
        try:
            region = builder()
        except PlanError as exc:
            self.report[self._key(loop)] = f"rejected ({label}): {exc}"
            return False
        if region is None:
            return False
        mapping = dict(region.result_map)
        if replaced is not None and original is not None:
            # The vectorized region was built from the if-converted clone;
            # its result_map keys are the clone's results.
            for old_r, new_r in zip(original.results, replaced.results):
                if new_r in mapping:
                    mapping[old_r] = mapping[new_r]
        block.instrs[index : index + 1] = region.instrs
        _remap_after(block, index + len(region.instrs), mapping)
        self.report[self._key(loop)] = f"vectorized ({label})"
        return True

    def _key(self, loop: ForLoop) -> str:
        # Keyed by per-function discovery order, not ``loop.id``: the
        # global instruction counter depends on everything compiled
        # before in this process, and the report is encoded into the
        # canonical bytecode — replicas must produce identical bytes.
        key = self._loop_keys.get(id(loop))
        if key is None:
            key = f"loop_{loop.iv.name}_{len(self._loop_keys)}"
            self._loop_keys[id(loop)] = key
        return key


def _region_or_none(info, legal, config):
    return build_vectorized_region(info, legal, config)


def _probe_config(config: VectorizerConfig) -> VectorizerConfig:
    """A throwaway config for feasibility probes (keeps group ids stable)."""
    from dataclasses import replace

    return replace(config, _group_counter=[10_000_000])


def vectorize_function(fn: Function, config: VectorizerConfig) -> Function:
    """Vectorize ``fn`` into a new function (form="vector").

    The returned function is the *vectorized bytecode* of the split flow
    (or the target-specific vector IR of the native flow); the input is
    left untouched and serves as the scalar bytecode.
    """
    out = _clone_function(fn, "vector")
    return _Driver(out, config).run()


def vectorize_module(module: Module, config: VectorizerConfig) -> Module:
    """Vectorize every function of a module into a new module."""
    out = Module(module.name + ".vec")
    for fn in module:
        out.add(vectorize_function(fn, config))
    return out
