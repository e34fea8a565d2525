"""Wire a SimWorld into a memory world as the user32/gdi32 libraries.

Every operation of the simulated corpus is wrapped in a marshalling
skeleton and registered as a pascal-convention symbol of its interface's
source library, so clients reach the simulation exactly the way generated
bindings reach a real system library.
"""

from __future__ import annotations

from importlib import resources

from mlidl import marshal
from mlidl.binding import build_binding
from mlidl.binding.model import BindingDesc
from mlidl.idl import parse_text
from mlidl.winsim.world import SimWorld


def sim_idl_text() -> str:
    return (resources.files("mlidl.winsim") / "data" / "win32sim.idl"
            ).read_text(encoding="utf-8")


def sim_binding() -> BindingDesc:
    """Binding description of the simulated API surface (dynamic, auto)."""
    unit = parse_text(sim_idl_text(), "win32sim.idl")
    return build_binding(unit, mode="dynamic", level="auto")


def install_libraries(world: SimWorld) -> BindingDesc:
    """Register every simulated operation as a callable library symbol.  The
    simulated corpus binds in dynamic mode, so every operation is a method,
    and each of its interfaces names its source library."""
    desc = sim_binding()
    mem = world.mem
    for iface in desc.interfaces:
        lib = mem.register_library(iface.source)
        for op in iface.ops:
            impl = getattr(world, op.name, None)
            if impl is None:
                raise marshal.MarshalError(
                    f"simulation has no implementation for {iface.name}.{op.name}")
            stub = marshal.skeleton(op, impl, mem, desc)
            mem.register_function(lib, op.name, stub, convention="pascal",
                                  arity=marshal.abi_arity(op, desc))
    return desc
