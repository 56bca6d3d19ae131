"""DAG-driven experiment orchestration with resumable state.

The flat run-every-experiment script became a dependency-aware task
graph (cylc-flow is the architectural reference): experiments,
figure renders, the bench report and the dashboard are :class:`Task`
nodes; a scheduler walks them in topological order, fans independent
tasks over :mod:`repro.parallel`'s process pool, and persists per-task
state + output digests to an on-disk run directory so re-invocations
resume exactly where they stopped and only re-run what changed.

Entry points: ``python -m repro flow run`` (CLI), or programmatically::

    from repro.flow import FlowRunner, build_graph
    result = FlowRunner(build_graph("reduced"), mode="reduced").run()

See DESIGN.md §15 for the architecture and §16 for the observability
layer (per-task resource accounting, critical-path analysis via
:mod:`repro.obs.flowreport`, and cross-run diffing via
:mod:`repro.flow.diff`).
"""

from repro.flow.diff import flow_diff, format_flow_diff
from repro.flow.graph import FlowError, Task, TaskGraph
from repro.flow.runner import FlowResult, FlowRunner
from repro.flow.state import FlowState, TaskRecord, flow_root
from repro.flow.tasks import MODES, build_graph, task_names

__all__ = [
    "FlowError",
    "FlowResult",
    "FlowRunner",
    "FlowState",
    "MODES",
    "Task",
    "TaskGraph",
    "TaskRecord",
    "build_graph",
    "flow_diff",
    "flow_root",
    "format_flow_diff",
    "task_names",
]
