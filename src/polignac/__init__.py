"""Primorial-wheel prospective primes: enumeration, mixed-radix coding,
gap censuses and lineages, and prime-pair lower bounds.

Every function has one name, the one in its module, e.g.
``from polignac.census import gap_census``.  ``import polignac`` binds
the five modules, since callers reach them as ``polignac.<module>`` and
resolve ``getattr(polignac, module)``; it imports exactly these modules,
so import costs what it did.  ``nth_prime`` and ``primorial`` are also
bound here, for callers that warm the prime table or size a window
through ``polignac.nth_prime`` and ``polignac.primorial``.
"""

from . import arith, census, codec, primepairs, wheel
from .arith import nth_prime, primorial
