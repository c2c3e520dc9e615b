"""`python -m otcomp`: the command-line front end (see `otcomp.cli`)."""

from .cli import main

raise SystemExit(main())
