"""ray-geo-er: a from-scratch Ray-Data-native geospatial ER / spatial-join engine.

Capabilities mirror BarGenossar/Geospatial-Object-Matching (3dSAGER, reference
snapshot at /root/reference) re-expressed as ray.data.Dataset pipelines; see
SURVEY.md for the operator-by-operator mapping.

How the code reaches Ray workers depends on the driver, and is chosen for
each Ray session (at import when Ray is already up, else at ``ray.init``).
When the directory holding this package is on the workers' ``sys.path``
(Ray puts the driver's cwd and script directory there, so a driver run from
the repository root), task closures refer to engine modules by name: each
worker imports them once, and their module globals live as long as the
worker process.  Otherwise (a driver with a foreign cwd that put the
repository on its own ``sys.path``) the engine and datagen packages are
registered for cloudpickle by-value shipping, so each task carries and
rebuilds their modules.
"""

import importlib
import os
import sys

import ray
from ray import cloudpickle

_ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
_PACKAGES = ("engine", "datagen")


def _workers_import_us() -> bool:
    """Whether this Ray job's workers find this package on their sys.path,
    which holds the job config's ``py_driver_sys_path``."""
    from ray._private.worker import global_worker
    paths = global_worker.core_worker.get_job_config().py_driver_sys_path
    return _ROOT in {os.path.realpath(p) for p in paths}


def _choose_shipping() -> None:
    """Register the packages for by-value pickling unless the workers of the
    running Ray job can import them; undo a registration when they can."""
    try:
        by_value = not _workers_import_us()
    except Exception:
        # no local job config (a Ray client session); this runs inside
        # ray.init, so fall back to by value, which works for every driver
        by_value = True
    registered = cloudpickle.list_registry_pickle_by_value()
    for name in _PACKAGES:
        if by_value and name not in registered:
            cloudpickle.register_pickle_by_value(importlib.import_module(name))
        elif not by_value and name in registered:
            cloudpickle.unregister_pickle_by_value(sys.modules[name])


ray._private.worker._post_init_hooks.append(_choose_shipping)
if ray.is_initialized():
    _choose_shipping()
