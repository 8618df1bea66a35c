"""Hardware profiles of the devices pictured in the tutorial.

Part II's "Target hardware" slide shows a spectrum of secure devices — smart
USB tokens, secure microSD cards, contactless badges, flash-equipped sensors
— all sharing one architecture: a tamper-resistant MCU with tiny RAM driving
gigabytes of NAND flash. Each profile below fixes the simulator parameters
for one such device so benchmarks can be run "on" different hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.flash import FlashCostModel, FlashGeometry

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class HardwareProfile:
    """Parameters of one secure device class."""

    name: str
    ram_bytes: int
    cpu_mhz: float
    flash_geometry: FlashGeometry
    flash_cost: FlashCostModel
    tamper_resistant: bool


def smart_usb_token() -> HardwareProfile:
    """Smart USB token (Eurosmart-style): secure MCU + 8 GB-class NAND.

    We scale the flash down to 128 MB so simulations stay laptop-sized; the
    page/block structure — which is what the algorithms see — is unchanged.
    """
    return HardwareProfile(
        name="smart-usb-token",
        ram_bytes=64 * KB,
        cpu_mhz=50.0,
        flash_geometry=FlashGeometry(page_size=2048, pages_per_block=64, num_blocks=1024),
        flash_cost=FlashCostModel(read_us=25.0, program_us=200.0, erase_us=1500.0),
        tamper_resistant=True,
    )


def secure_microsd() -> HardwareProfile:
    """Secure microSD: a secure chip implanted in a 4 GB-class memory card."""
    return HardwareProfile(
        name="secure-microsd",
        ram_bytes=128 * KB,
        cpu_mhz=120.0,
        flash_geometry=FlashGeometry(page_size=4096, pages_per_block=128, num_blocks=512),
        flash_cost=FlashCostModel(read_us=25.0, program_us=250.0, erase_us=2000.0),
        tamper_resistant=True,
    )


def contactless_badge() -> HardwareProfile:
    """Contactless smart badge (the medical-folder sync carrier)."""
    return HardwareProfile(
        name="contactless-badge",
        ram_bytes=32 * KB,
        cpu_mhz=25.0,
        flash_geometry=FlashGeometry(page_size=2048, pages_per_block=64, num_blocks=256),
        flash_cost=FlashCostModel(read_us=35.0, program_us=300.0, erase_us=2500.0),
        tamper_resistant=True,
    )


def flash_sensor() -> HardwareProfile:
    """Sensor node with a flash memory card (Snoogle/Microsearch class)."""
    return HardwareProfile(
        name="flash-sensor",
        ram_bytes=16 * KB,
        cpu_mhz=8.0,
        flash_geometry=FlashGeometry(page_size=512, pages_per_block=32, num_blocks=512),
        flash_cost=FlashCostModel(read_us=50.0, program_us=350.0, erase_us=3000.0),
        tamper_resistant=False,
    )


def plug_server() -> HardwareProfile:
    """FreedomBox-style plug server: roomy but *not* tamper resistant.

    Used as the untrusted/weak end of the spectrum in Part I comparisons.
    """
    return HardwareProfile(
        name="plug-server",
        ram_bytes=256 * MB,
        cpu_mhz=1200.0,
        flash_geometry=FlashGeometry(page_size=4096, pages_per_block=128, num_blocks=2048),
        flash_cost=FlashCostModel(read_us=20.0, program_us=150.0, erase_us=1200.0),
        tamper_resistant=False,
    )


ALL_PROFILES = {
    profile().name: profile
    for profile in (
        smart_usb_token,
        secure_microsd,
        contactless_badge,
        flash_sensor,
        plug_server,
    )
}


def by_name(name: str) -> HardwareProfile:
    """Look up a profile by its ``name`` field."""
    try:
        return ALL_PROFILES[name]()
    except KeyError:
        known = ", ".join(sorted(ALL_PROFILES))
        raise KeyError(f"unknown hardware profile {name!r}; known: {known}") from None
