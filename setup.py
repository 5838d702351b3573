"""Packaging for the M-Machine reproduction.

``pip install -e .`` makes the ``repro`` package importable without the
``PYTHONPATH=src`` prefix used in the documentation, and
``pip install -e .[test]`` pulls in everything the test and benchmark
suites need.
"""

from setuptools import find_packages, setup

setup(
    name="repro-mmachine",
    version="12.2.0",
    description=(
        "Cycle-level simulator reproducing 'The M-Machine Multicomputer' "
        "(Fillo, Keckler, Dally, Carter, Chang, Gurevich & Lee, MICRO-28 1995)"
    ),
    long_description=(
        "A cycle-level model of the MAP multi-ALU processor and the 3-D mesh "
        "multicomputer built from it: multithreaded execution clusters, "
        "guarded pointers, the GTLB/LTLB translation hierarchy, user-level "
        "message passing with return-to-sender throttling, and the software "
        "runtime (event, message and coherence handlers) the paper's "
        "evaluation depends on.  Simulation is driven by an event-driven, "
        "activity-tracked kernel that skips idle nodes and idle cycles while "
        "remaining cycle-exact against the reference tick loop."
    ),
    long_description_content_type="text/plain",
    author="repro contributors",
    license="MIT",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    # PEP 561: ship the inline type hints (the typed repro.api facade).
    package_data={"repro": ["py.typed"]},
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    python_requires=">=3.8",
    install_requires=[],          # the simulator itself is pure stdlib
    extras_require={
        "test": [
            "pytest>=7",
            "pytest-benchmark>=4",
            "hypothesis>=6",
        ],
    },
    classifiers=[
        "Development Status :: 3 - Alpha",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.8",
        "Programming Language :: Python :: 3.9",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Programming Language :: Python :: 3.13",
        "Topic :: System :: Emulators",
        "Topic :: Scientific/Engineering",
    ],
    zip_safe=False,
)
